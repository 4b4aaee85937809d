//! The four benchmark workloads: each builds its inputs from the seed
//! (`setup`, timed as `setup_s`) and then makes one timed call into an
//! experiment's public entry point at `jobs = 1` (`run`, timed as
//! `run_s`). Every run is checked: a digest over all the simulated
//! statistics the call returns, plus invariants that hold for any seed.

use crate::digest::Digest;
use mosaic_mem::PAGE_SIZE;
use mosaic_mmu::Arity;
use mosaic_obs::ObsHandle;
use mosaic_sim::fig6::{self, Fig6Config};
use mosaic_sim::pressure::{self, PressureConfig, PressureWorkload, ResilienceConfig};
use mosaic_sim::{attrib, derive_seed, AttribConfig, TlbKind, TraceBuffer};
use mosaic_tenants::{build_schedule, HostileScenario, Schedule, TenantMix, TenantsConfig};
use mosaic_workloads::{Graph500, Gups, GupsConfig, Workload};

/// How big a run is: `Full` is what the benchmark times, `Smoke` is a
/// seconds-long shape for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's timed size.
    Full,
    /// A tiny shape that exercises the same code.
    Smoke,
}

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// Figure 6 grid over a recorded GUPS trace.
    Fig6Gups,
    /// The attribution experiment with 3C classification on.
    Attrib,
    /// One over-committed Table 4 cell (XSBench), both managers.
    Table4Pressure,
    /// 64 Zipf-weighted tenants with exit/respawn churn.
    TenantsChurn,
}

impl Name {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Name; 4] = [
        Name::Fig6Gups,
        Name::Attrib,
        Name::Table4Pressure,
        Name::TenantsChurn,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Fig6Gups => "fig6-gups",
            Name::Attrib => "attrib",
            Name::Table4Pressure => "table4-pressure",
            Name::TenantsChurn => "tenants-churn",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(s: &str) -> Option<Name> {
        Name::ALL.into_iter().find(|n| n.as_str() == s)
    }
}

/// Table 4's swap-heaviest footprint ratio (4924 MiB over 4096 MiB).
pub const PRESSURE_RATIO: f64 = 1.2021;

/// A workload's inputs, built from the seed before the timed call.
pub enum Input {
    /// A recorded GUPS trace and the paper's Figure 6 grid.
    Fig6 { cfg: Fig6Config, trace: TraceBuffer },
    /// The attribution config plus the reference count of each stream
    /// its entry point records (GUPS, Graph500).
    Attrib {
        cfg: AttribConfig,
        refs: Vec<(&'static str, u64)>,
    },
    /// One Table 4 cell; `refs` is the length of the stream the entry
    /// point records.
    Pressure { cfg: PressureConfig, refs: u64 },
    /// A built multi-tenant schedule.
    Tenants {
        cfg: TenantsConfig,
        schedule: Schedule,
    },
}

/// What one timed call produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload references the call consumed.
    pub refs: u64,
    /// Simulated structures each reference was fed to (TLB instances,
    /// cells or memory managers).
    pub structures: u64,
    /// References dropped with a typed error (counted per structure).
    pub failed: u64,
    /// Digest of every simulated statistic returned.
    pub digest: String,
    /// Mosaic's cost over the baseline's: TLB misses (Mosaic-4 ÷
    /// vanilla) or swap pages (Mosaic ÷ Linux).
    pub mosaic_ratio: f64,
    /// Invariants that failed; empty when the run is consistent.
    pub violations: Vec<String>,
}

/// The GUPS trace for `fig6-gups`: a 32 MiB table (8192 pages, eight
/// times the TLB's reach) so every non-mosaic design misses constantly.
pub fn fig6_gups(seed: u64, size: Size) -> Gups {
    let (table_bytes, updates) = match size {
        Size::Full => (32 << 20, 150_000),
        Size::Smoke => (1 << 20, 4_000),
    };
    Gups::new(
        GupsConfig {
            table_bytes,
            updates,
        },
        derive_seed(0x6005, seed),
    )
}

/// The Figure 6 grid at the paper's geometry, seeded from `seed`.
pub fn fig6_config(seed: u64) -> Fig6Config {
    let mut cfg = Fig6Config::paper();
    cfg.seed = derive_seed(cfg.seed, seed);
    cfg
}

/// The attribution experiment's config for `seed`.
pub fn attrib_config(seed: u64, size: Size) -> AttribConfig {
    let mut cfg = match size {
        Size::Full => AttribConfig::paper(),
        Size::Smoke => AttribConfig::quick_test(),
    };
    cfg.seed = derive_seed(cfg.seed, seed);
    cfg
}

/// The two streams the attribution entry point builds and records, in
/// report order, built exactly as that entry point builds them.
pub fn attrib_streams(cfg: &AttribConfig) -> Vec<(&'static str, Box<dyn Workload>)> {
    let pages = cfg.footprint_pages();
    let bytes = pages * PAGE_SIZE;
    vec![
        (
            "GUPS",
            Box::new(Gups::new(
                GupsConfig {
                    table_bytes: bytes,
                    updates: pages * 32,
                },
                cfg.seed,
            )),
        ),
        (
            "Graph500",
            Box::new(Graph500::with_footprint(bytes, 1, cfg.seed)),
        ),
    ]
}

/// The Table 4 cell's config for `seed`.
pub fn pressure_config(seed: u64, size: Size) -> PressureConfig {
    PressureConfig {
        mem_buckets: match size {
            Size::Full => 24,
            Size::Smoke => 8,
        },
        seed: derive_seed(PressureConfig::quick().seed, seed),
        batch: fig6::DEFAULT_BATCH,
    }
}

/// The XSBench stream the Table 4 entry point records for `cfg`.
pub fn pressure_stream(cfg: &PressureConfig) -> Box<dyn Workload> {
    let target = (cfg.mem_bytes() as f64 * PRESSURE_RATIO) as u64;
    PressureWorkload::XsBench.build(target, cfg.seed)
}

/// The multi-tenant shape: 64 tenants, Zipf(0.99), 105 % load, churn
/// on, no quotas.
pub fn tenants_config(seed: u64, size: Size) -> TenantsConfig {
    let (tenants, mem_buckets, steps, churn_every) = match size {
        Size::Full => (64, 64, 600_000, 20_000),
        Size::Smoke => (8, 8, 20_000, 2_000),
    };
    TenantsConfig {
        tenants,
        mem_buckets,
        seed: derive_seed(TenantsConfig::golden().seed, seed),
        theta: 0.99,
        load: 1.05,
        steps,
        churn_every,
        mix: TenantMix::Rotate,
        hostile: HostileScenario::None,
        hostile_mult: 4,
        hostile_churn_every: 2_000,
        quota_frac_pct: 0,
        priority_spread: 1,
        shared_traces: false,
        concurrent_alloc: false,
    }
}

fn record(w: &mut dyn Workload) -> TraceBuffer {
    TraceBuffer::record(w).expect("an in-memory trace records without spilling")
}

/// Builds `name`'s inputs from `seed` (the timed set-up).
pub fn setup(name: Name, seed: u64, size: Size) -> Input {
    match name {
        Name::Fig6Gups => Input::Fig6 {
            cfg: fig6_config(seed),
            trace: record(&mut fig6_gups(seed, size)),
        },
        Name::Attrib => {
            let cfg = attrib_config(seed, size);
            let refs = attrib_streams(&cfg)
                .into_iter()
                .map(|(name, mut w)| (name, record(w.as_mut()).len()))
                .collect();
            Input::Attrib { cfg, refs }
        }
        Name::Table4Pressure => {
            let cfg = pressure_config(seed, size);
            let refs = record(pressure_stream(&cfg).as_mut()).len();
            Input::Pressure { cfg, refs }
        }
        Name::TenantsChurn => {
            let cfg = tenants_config(seed, size);
            let schedule = build_schedule(&cfg);
            Input::Tenants { cfg, schedule }
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// Makes the timed entry-point call and checks what it returned.
pub fn run(input: &Input) -> Outcome {
    match input {
        Input::Fig6 { cfg, trace } => run_fig6(cfg, trace),
        Input::Attrib { cfg, refs } => run_attrib(cfg, refs),
        Input::Pressure { cfg, refs } => run_pressure(cfg, *refs),
        Input::Tenants { cfg, schedule } => run_tenants(cfg, schedule),
    }
}

fn run_fig6(cfg: &Fig6Config, trace: &TraceBuffer) -> Outcome {
    let mut replay = trace.replayer();
    let rows = fig6::run_workload(cfg, &mut replay);
    let refs = trace.len();
    let structures = (cfg.associativities.len() * (1 + cfg.arities.len())) as u64;
    let mut violations = fig6_violations(&rows, refs, structures);
    if let Some(e) = replay.error() {
        violations.push(format!("trace replay failed: {e}"));
    }
    let failed = if replay.error().is_some() {
        refs * structures
    } else {
        0
    };
    Outcome {
        refs,
        structures,
        failed,
        digest: Digest::default().fig6_rows(&rows).hex(),
        mosaic_ratio: mosaic4_miss_ratio(rows.iter().map(|r| (r.kind, r.stats.misses))),
        violations,
    }
}

/// Figure 6 conservation: one row per instance, every instance fed the
/// same stream (user refs plus identical kernel injections), and every
/// lookup either a hit or a miss.
pub fn fig6_violations(rows: &[mosaic_sim::Fig6Row], refs: u64, structures: u64) -> Vec<String> {
    let mut v = Vec::new();
    if rows.len() as u64 != structures {
        v.push(format!("{} rows for {structures} instances", rows.len()));
    }
    let accesses = rows.first().map_or(0, |r| r.stats.accesses);
    if accesses < refs {
        v.push(format!("{accesses} TLB accesses for {refs} references"));
    }
    for r in rows {
        if r.stats.accesses != accesses {
            v.push(format!(
                "{} {}: {} accesses, expected {accesses}",
                r.assoc, r.kind, r.stats.accesses
            ));
        }
        if r.stats.hits + r.stats.misses != r.stats.accesses {
            v.push(format!("{} {}: hits + misses != accesses", r.assoc, r.kind));
        }
    }
    v
}

/// Σ Mosaic-4 misses ÷ Σ vanilla misses over the rows given.
fn mosaic4_miss_ratio(rows: impl Iterator<Item = (TlbKind, u64)>) -> f64 {
    let (mut mosaic, mut vanilla) = (0u64, 0u64);
    for (kind, misses) in rows {
        match kind {
            TlbKind::Vanilla => vanilla += misses,
            TlbKind::Mosaic(a) if a == Arity::new(4) => mosaic += misses,
            TlbKind::Mosaic(_) => {}
        }
    }
    ratio(mosaic, vanilla)
}

fn run_attrib(cfg: &AttribConfig, stream_refs: &[(&'static str, u64)]) -> Outcome {
    let obs = ObsHandle::enabled();
    obs.set_attrib(true);
    let report = attrib::run_attrib(cfg, &obs, 0, 1);
    let refs: u64 = stream_refs.iter().map(|(_, r)| r).sum();
    let structures = (cfg.associativities.len() * (1 + cfg.arities.len()) + 2) as u64;
    Outcome {
        refs,
        structures,
        failed: report.mem.iter().map(|m| m.dropped).sum(),
        digest: Digest::default().attrib_report(&report).hex(),
        mosaic_ratio: mosaic4_miss_ratio(report.tlb.iter().map(|r| (r.kind, r.stats.misses))),
        violations: attrib_violations(&report, stream_refs),
    }
}

/// The attribution experiment's own claims, checkable for any seed:
/// every cell saw its whole stream, every miss is classified, and
/// compulsory misses agree across designs.
pub fn attrib_violations(
    rep: &mosaic_sim::AttribReport,
    stream_refs: &[(&str, u64)],
) -> Vec<String> {
    let mut v = Vec::new();
    for &(wl, refs) in stream_refs {
        let rows: Vec<_> = rep.tlb.iter().filter(|r| r.workload == wl).collect();
        if rows.is_empty() {
            v.push(format!("{wl}: no TLB rows"));
            continue;
        }
        let compulsory = rows[0].compulsory;
        for r in rows {
            if r.stats.accesses != refs {
                v.push(format!(
                    "{wl} {} {}: {} accesses for {refs} refs",
                    r.assoc, r.kind, r.stats.accesses
                ));
            }
            if r.classified() != r.misses() {
                v.push(format!(
                    "{wl} {} {}: {} classified of {} misses",
                    r.assoc,
                    r.kind,
                    r.classified(),
                    r.misses()
                ));
            }
            if r.compulsory != compulsory {
                v.push(format!(
                    "{wl} {} {}: compulsory {} != {compulsory}",
                    r.assoc, r.kind, r.compulsory
                ));
            }
        }
    }
    v
}

fn run_pressure(cfg: &PressureConfig, refs: u64) -> Outcome {
    let result = pressure::run_pressure_resilient(
        PressureWorkload::XsBench,
        PRESSURE_RATIO,
        cfg,
        &ResilienceConfig::none(),
    );
    let structures = 2;
    match result {
        Ok((row, report)) => {
            let mut violations = Vec::new();
            if report.accesses_driven != refs * structures {
                violations.push(format!(
                    "{} accesses driven for {refs} refs × 2 managers",
                    report.accesses_driven
                ));
            }
            if report.verify_passes < structures {
                violations.push(format!("{} verify passes", report.verify_passes));
            }
            Outcome {
                refs,
                structures,
                failed: report.dropped(),
                digest: Digest::default()
                    .pressure_row(&row)
                    .resilience_report(&report)
                    .hex(),
                mosaic_ratio: ratio(row.mosaic_swaps, row.linux_swaps),
                violations,
            }
        }
        Err(e) => failed_outcome(refs, structures, format!("pressure run failed: {e}")),
    }
}

fn failed_outcome(refs: u64, structures: u64, why: String) -> Outcome {
    Outcome {
        refs,
        structures,
        failed: refs * structures,
        digest: String::new(),
        mosaic_ratio: 0.0,
        violations: vec![why],
    }
}

fn run_tenants(cfg: &TenantsConfig, schedule: &Schedule) -> Outcome {
    let result = mosaic_tenants::run_schedule_observed(
        cfg,
        schedule,
        None,
        &ResilienceConfig::none(),
        &ObsHandle::noop(),
        0,
    );
    let (refs, structures) = (schedule.accesses(), 2);
    match result {
        Ok((row, report)) => Outcome {
            refs,
            structures,
            failed: report.dropped(),
            digest: Digest::default()
                .tenants_row(&row)
                .resilience_report(&report)
                .hex(),
            mosaic_ratio: ratio(row.pressure.mosaic_swaps, row.pressure.linux_swaps),
            violations: tenants_violations(&row, schedule),
        },
        Err(e) => failed_outcome(refs, structures, format!("tenants run failed: {e}")),
    }
}

/// Per-manager access and fault conservation over the schedule.
pub fn tenants_violations(row: &mosaic_tenants::TenantsRow, schedule: &Schedule) -> Vec<String> {
    let mut v = Vec::new();
    for (mgr, slots, deferred) in [
        ("mosaic", &row.mosaic_slots, row.mosaic_deferred),
        ("linux", &row.linux_slots, row.linux_deferred),
    ] {
        let accesses: u64 = slots.iter().map(|s| s.accesses).sum();
        if accesses != schedule.accesses() {
            v.push(format!(
                "{mgr}: {accesses} slot accesses of {}",
                schedule.accesses()
            ));
        }
        let generations: u64 = slots.iter().map(|s| s.generations).sum();
        if generations != schedule.exits() {
            v.push(format!(
                "{mgr}: {generations} generations of {} exits",
                schedule.exits()
            ));
        }
        if slots
            .iter()
            .any(|s| s.major_faults > s.faults || s.faults > s.accesses)
        {
            v.push(format!(
                "{mgr}: a slot has more major faults than faults, or faults than accesses"
            ));
        }
        if deferred != 0 {
            v.push(format!(
                "{mgr}: {deferred} accesses deferred with quotas off"
            ));
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_runs_clean_at_smoke_size() {
        for name in Name::ALL {
            let input = setup(name, 7, Size::Smoke);
            let a = run(&input);
            let b = run(&input);
            assert!(
                a.violations.is_empty(),
                "{}: {:?}",
                name.as_str(),
                a.violations
            );
            assert_eq!(a.failed, 0, "{}", name.as_str());
            assert!(a.refs > 0 && a.structures > 0, "{}", name.as_str());
            assert!(a.mosaic_ratio > 0.0, "{}", name.as_str());
            assert_eq!(
                a.digest,
                b.digest,
                "{}: a rerun must repeat exactly",
                name.as_str()
            );
            assert_eq!(Name::parse(name.as_str()), Some(name));
        }
    }

    #[test]
    fn seeds_change_the_inputs() {
        let digest = |seed| run(&setup(Name::Fig6Gups, seed, Size::Smoke)).digest;
        assert_ne!(digest(1), digest(2));
    }

    #[test]
    fn a_broken_invariant_is_reported() {
        let input = setup(Name::Fig6Gups, 7, Size::Smoke);
        let Input::Fig6 { cfg, trace } = &input else {
            unreachable!()
        };
        let mut rows = fig6::run_workload(cfg, &mut trace.replayer());
        let structures = rows.len() as u64;
        assert!(fig6_violations(&rows, trace.len(), structures).is_empty());
        rows[3].stats.hits += 1;
        assert!(!fig6_violations(&rows, trace.len(), structures).is_empty());
    }
}
