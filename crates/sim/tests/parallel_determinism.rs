//! Cross-thread-count determinism suite for the parallel sweep engine.
//!
//! Every driver that fans cells out over a rayon pool must produce
//! results byte-identical to its serial twin at any `--jobs` value:
//! the record-once/replay-many trace plus deterministic per-cell seed
//! derivation make thread count a pure throughput knob. These tests pin
//! that contract for the Figure 6 grid (rows and 3C attribution
//! tables), the Table 4 pressure sweep (fault-free and fault-injected),
//! and the fragmentation sweep.

use mosaic_mem::{FaultPlan, MosaicResult, ResilienceStats};
use mosaic_obs::ObsHandle;
use mosaic_sim::fig6::{
    run_workload, run_workload_jobs, run_workload_observed_jobs, Fig6Config, TlbKind,
};
use mosaic_sim::frag::{run_frag, run_frag_jobs, FragConfig};
use mosaic_sim::pressure::{
    run_pressure, run_table4, PressureConfig, PressureRow, PressureWorkload, ResilienceConfig,
    ResilienceReport,
};
use mosaic_workloads::{BTreeConfig, BTreeWorkload, Gups, GupsConfig};

const JOB_COUNTS: [usize; 3] = [1, 2, 8];

fn quick_gups() -> Gups {
    Gups::new(
        GupsConfig {
            table_bytes: 1 << 20,
            updates: 20_000,
        },
        5,
    )
}

fn tiny_pressure_cfg() -> PressureConfig {
    PressureConfig {
        mem_buckets: 16, // 1024 frames = 4 MiB
        seed: 5,
        batch: mosaic_sim::fig6::DEFAULT_BATCH,
    }
}

fn small_btree() -> BTreeWorkload {
    BTreeWorkload::new(
        BTreeConfig {
            num_keys: 50_000,
            num_lookups: 5_000,
        },
        7,
    )
}

#[test]
fn fig6_rows_identical_across_job_counts() {
    let cfg = Fig6Config::quick_test();
    let serial = run_workload(&cfg, &mut quick_gups());
    for jobs in JOB_COUNTS {
        let rows = run_workload_jobs(&cfg, &mut quick_gups(), jobs);
        assert_eq!(rows, serial, "fig6 rows diverged at jobs={jobs}");
    }
}

#[test]
fn fig6_with_kernel_identical_across_job_counts() {
    // The kernel model interleaves page-table-walker accesses into the
    // recorded reference stream; replay must preserve them verbatim.
    let cfg = Fig6Config {
        kernel: Some(mosaic_sim::dual::KernelConfig::default()),
        ..Fig6Config::quick_test()
    };
    let serial = run_workload(&cfg, &mut quick_gups());
    for jobs in JOB_COUNTS {
        let rows = run_workload_jobs(&cfg, &mut quick_gups(), jobs);
        assert_eq!(rows, serial, "fig6 kernel rows diverged at jobs={jobs}");
    }
}

#[test]
fn fig6_attrib_tables_identical_across_engines() {
    // jobs 1 classifies inside one `DualSim`; jobs 2 splits the grid
    // into two `DualSim`s, each classifying the recorded stream again.
    // Both must charge every instance's misses to the same 3C cells.
    let cfg = Fig6Config {
        kernel: Some(mosaic_sim::dual::KernelConfig {
            pages: 64,
            period: 16,
        }),
        arities: vec![mosaic_mmu::Arity::new(4), mosaic_mmu::Arity::new(8)],
        ..Fig6Config::quick_test()
    };
    let tables = |jobs| {
        let obs = mosaic_obs::ObsHandle::enabled();
        obs.set_attrib(true);
        let rows = run_workload_observed_jobs(&cfg, &mut quick_gups(), &obs, 5_000, jobs);
        let tables: Vec<_> = obs
            .attrib_names()
            .into_iter()
            .filter(|name| name.starts_with("tlb."))
            .map(|name| {
                let table = obs.attrib_table(&name);
                (name, table)
            })
            .collect();
        (rows, tables)
    };
    let (serial_rows, serial) = tables(1);
    let (cell_rows, cells) = tables(2);
    assert_eq!(cell_rows, serial_rows);
    assert_eq!(serial.len(), 2 * 3, "one table per TLB instance");
    for row in &serial_rows {
        let design = match row.kind {
            TlbKind::Vanilla => "vanilla".to_string(),
            TlbKind::Mosaic(a) => format!("mosaic-{}", a.get()),
        };
        let name = format!("tlb.{design}.{}", row.assoc.to_string().to_lowercase());
        let (_, table) = serial
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no table {name}"));
        assert_eq!(table.total(), row.misses(), "{name}: every miss classified");
    }
    assert_eq!(cells, serial, "3C tables diverged between engines");
}

/// The unobserved Table 4 grid, failing on the first cell that failed.
fn table4(
    cfg: &PressureConfig,
    ratios: &[f64],
    res: &ResilienceConfig,
    jobs: usize,
) -> MosaicResult<Vec<(PressureRow, ResilienceReport)>> {
    run_table4(cfg, ratios, res, &ObsHandle::noop(), 0, jobs)
        .into_iter()
        .collect()
}

#[test]
fn table4_zero_fault_parallel_matches_serial_bit_for_bit() {
    let cfg = tiny_pressure_cfg();
    let ratios = [1.25];
    // The serial reference: every grid cell, in grid order, through the
    // plain single-run entry point.
    let mut serial = Vec::new();
    for w in PressureWorkload::ALL {
        for &r in &ratios {
            serial.push(run_pressure(w, r, &cfg));
        }
    }
    for jobs in [1, 2, 4, 8] {
        let cells = table4(&cfg, &ratios, &ResilienceConfig::none(), jobs)
            .expect("fault-free table4 cannot fail");
        let rows: Vec<_> = cells.iter().map(|(row, _)| row.clone()).collect();
        assert_eq!(rows, serial, "table4 rows diverged at jobs={jobs}");
        for (_, rep) in &cells {
            assert_eq!(
                rep.combined(),
                ResilienceStats::ZERO,
                "zero-fault run reported faults at jobs={jobs}"
            );
        }
    }
}

#[test]
fn table4_fault_plan_identical_across_job_counts() {
    // With an active plan every cell derives its injector seed from
    // (base seed, cell index), so fault placement is a function of the
    // grid position — never of which thread ran the cell.
    let cfg = tiny_pressure_cfg();
    let ratios = [1.25];
    let res = ResilienceConfig {
        plan: FaultPlan::NONE
            .with_alloc_failures(5_000)
            .with_io_failures(5_000, 1)
            .with_toc_flips(500),
        fault_seed: 0xF00D,
        verify_every: 50_000,
    };
    let baseline = table4(&cfg, &ratios, &res, 1).expect("faulty run at jobs=1");
    assert!(
        baseline
            .iter()
            .any(|(_, rep)| rep.combined() != ResilienceStats::ZERO),
        "plan injected nothing; test would not exercise fault determinism"
    );
    for jobs in JOB_COUNTS {
        let cells = table4(&cfg, &ratios, &res, jobs).expect("faulty run");
        assert_eq!(cells, baseline, "faulty table4 diverged at jobs={jobs}");
    }
}

#[test]
fn frag_results_identical_across_job_counts() {
    let cfgs = [FragConfig::new(0.0, 11), FragConfig::new(0.5, 11)];
    let serial: Vec<_> = cfgs
        .iter()
        .map(|c| run_frag(c, &mut small_btree()))
        .collect();
    for jobs in JOB_COUNTS {
        let results = run_frag_jobs(&cfgs, &mut small_btree(), jobs);
        assert_eq!(results, serial, "frag results diverged at jobs={jobs}");
    }
}
