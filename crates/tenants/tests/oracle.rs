//! Oracle equivalence: the multi-tenant driver, collapsed to one tenant
//! with no churn, must be *bit-identical* to the single-process pressure
//! run — same workload build, same ASID, same managers. Both feed the
//! one memory replay loop (`MemDrive`), so what this pins is the
//! schedule construction and the per-slot accounting around it against
//! the recorded-trace path. Any drift here means the multi-tenant
//! results are measuring the driver, not the tenancy.

use mosaic_sim::pressure::{run_pressure, PressureWorkload, ResilienceConfig};
use mosaic_tenants::driver::as_pressure_config;
use mosaic_tenants::{run_tenants, run_tenants_grid, TenantMix, TenantOp, TenantsConfig};
use mosaic_obs::ObsHandle;

fn one_tenant(workload: PressureWorkload, load: f64) -> TenantsConfig {
    TenantsConfig {
        tenants: 1,
        mem_buckets: 16,
        seed: 0x7AB1E,
        theta: 0.99,
        load,
        steps: 0, // one full pass of the recorded trace, like run_pressure
        churn_every: 0,
        mix: TenantMix::Single(workload),
        hostile: mosaic_tenants::HostileScenario::None,
        hostile_mult: 4,
        hostile_churn_every: 2_000,
        quota_frac_pct: 0,
        priority_spread: 1,
        shared_traces: false,
        concurrent_alloc: false,
    }
}

#[test]
fn one_tenant_run_is_bit_identical_to_the_pressure_oracle() {
    for workload in PressureWorkload::ALL {
        for load in [0.9, 1.0774, 1.2021] {
            let cfg = one_tenant(workload, load);
            let row = run_tenants(&cfg);
            let oracle = run_pressure(workload, load, &as_pressure_config(&cfg));
            assert_eq!(
                row.pressure, oracle,
                "{} at load {load} diverged from the single-process oracle",
                workload.name()
            );
            // The lone tenant carries the whole run: aggregate counters
            // must match its slot exactly.
            assert_eq!(row.mosaic_slots.len(), 1);
            assert_eq!(row.exits, 0);
            assert_eq!(row.mosaic_frames_reclaimed, 0);
        }
    }
}

#[test]
fn one_tenant_schedule_uses_the_classic_asid_in_trace_order() {
    let cfg = one_tenant(PressureWorkload::BTree, 0.9);
    let schedule = mosaic_tenants::build_schedule(&cfg);
    assert_eq!(schedule.exits(), 0);
    for op in schedule.ops() {
        match op {
            TenantOp::Access { slot, asid, .. } => {
                assert_eq!(*slot, 0);
                assert_eq!(*asid, mosaic_mem::Asid(1));
            }
            TenantOp::Spawn { slot, asid } => {
                // The initial population claims its slot before the
                // trace starts; a quota-less replay ignores this op.
                assert_eq!(*slot, 0);
                assert_eq!(*asid, mosaic_mem::Asid(1));
            }
            TenantOp::Exit { .. } => panic!("churn-free schedule emitted an exit"),
        }
    }
}

#[test]
fn grid_is_byte_identical_across_job_counts_with_faults() {
    let base = TenantsConfig {
        tenants: 6,
        mem_buckets: 16,
        seed: 21,
        theta: 0.99,
        load: 0.9,
        steps: 40_000,
        churn_every: 8_000,
        mix: TenantMix::Rotate,
        ..TenantsConfig::quick()
    };
    let res = ResilienceConfig {
        plan: mosaic_mem::FaultPlan::NONE
            .with_alloc_failures(300)
            .with_io_failures(300, 2)
            .with_toc_flips(300),
        fault_seed: 0xFA17,
        verify_every: 10_000,
    };
    let run = |jobs: usize| {
        run_tenants_grid(
            &base,
            &[2, 6],
            &[0.9, 1.1],
            &res,
            &ObsHandle::noop(),
            0,
            jobs,
        )
        .into_iter()
        .map(|out| out.expect("verify must hold under injected faults"))
        .collect::<Vec<_>>()
    };
    let serial = run(1);
    for jobs in [2, 8] {
        assert_eq!(run(jobs), serial, "grid diverged at jobs={jobs}");
    }
}

#[test]
fn zipf_head_tenant_receives_the_most_traffic() {
    let cfg = TenantsConfig {
        tenants: 16,
        mem_buckets: 16,
        seed: 5,
        theta: 0.99,
        load: 0.8,
        steps: 60_000,
        churn_every: 0,
        mix: TenantMix::Rotate,
        ..TenantsConfig::quick()
    };
    let row = run_tenants(&cfg);
    let head = row.mosaic_slots[0].accesses;
    for s in &row.mosaic_slots[1..] {
        assert!(
            head >= s.accesses,
            "rank 0 ({head}) must dominate rank {} ({})",
            s.rank,
            s.accesses
        );
    }
    let tail = row.mosaic_slots.last().expect("non-empty").accesses;
    assert!(head > tail * 4, "theta=0.99 skew: head {head} vs tail {tail}");
}
