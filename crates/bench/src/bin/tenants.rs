//! Multi-tenant fairness sweep: many Zipf'd address spaces over one
//! shared frame pool, Mosaic vs the Linux baseline. `tenants --help`
//! lists the flags.
//!
//! For each load point (an integer percent of physical memory) the
//! driver records one trace per tenant slot, interleaves them under
//! Zipf(θ) with exit/respawn churn, and replays the identical schedule
//! into both managers. Output is a per-Zipf-rank-bucket fairness table
//! (fault ppm for both managers, Mosaic conflicts and conflict onset),
//! population p50/p99 per-tenant fault rates, and an aggregate
//! swap/utilization row per load.
//!
//! The whole sweep is a pure function of the flags: `--jobs 1` and
//! `--jobs 8` print byte-identical text, with or without `--fault-ppm`.

use mosaic_bench::obs::ObsSink;
use mosaic_bench::{Args, ArgsError};
use mosaic_core::sim::pressure::ResilienceConfig;
use mosaic_core::sim::report::Table;
use mosaic_core::tenants::{
    isolation_lines, render_fairness, render_isolation, summarize, HostileScenario, IsolationLine,
    TenantMix, TenantsConfig, TenantsRow,
};
use mosaic_obs::Value;

const ABOUT: &str = "\
Multi-tenant fairness sweep over one shared frame pool (Mosaic vs Linux).
Every load point replays one recorded schedule into both managers.
--hostile switches the binary to the isolation study: each load point is
replayed with quotas on and off, against per-slot solo baselines, and the
output is a victim-inflation table.";

const HOSTILE: &str = "thrasher | alloc-bomb | churn-storm";

/// `--loads P,P,..`: the load points as integer percents of memory.
fn read_loads(args: &mut Args) -> Vec<u64> {
    let spec = args
        .text(
            "loads",
            "P,P,..",
            "comma-separated load points, integer percents of memory (default 90,105,120)",
        )
        .unwrap_or_else(|| "90,105,120".to_string());
    spec.split(',')
        .filter_map(|s| match s.trim().parse() {
            Ok(pct) => Some(pct),
            Err(_) => {
                args.reject(ArgsError::BadValue {
                    flag: "loads".to_string(),
                    value: s.to_string(),
                    expected: "integer percents".to_string(),
                });
                None
            }
        })
        .collect()
}

fn aggregate_table(rows: &[(u64, &TenantsRow)]) -> Table {
    let mut t = Table::new(vec![
        "load %".into(),
        "tenants".into(),
        "exits".into(),
        "linux swaps".into(),
        "mosaic swaps".into(),
        "mosaic reclaimed".into(),
        "first conflict %".into(),
        "mosaic p99 ppm".into(),
        "linux p99 ppm".into(),
    ])
    .with_title("Aggregate per load point");
    for &(pct, row) in rows {
        let ms = summarize(&row.mosaic_slots);
        let ls = summarize(&row.linux_slots);
        t.row(vec![
            pct.to_string(),
            row.tenants.to_string(),
            row.exits.to_string(),
            row.pressure.linux_swaps.to_string(),
            row.pressure.mosaic_swaps.to_string(),
            row.mosaic_frames_reclaimed.to_string(),
            row.pressure
                .first_conflict_pct
                .map_or_else(|| "-".to_string(), |p| format!("{p:.1}")),
            ms.p99_ppm.to_string(),
            ls.p99_ppm.to_string(),
        ]);
    }
    t
}

fn run_sweep(
    base: &TenantsConfig,
    loads_pct: &[u64],
    res: &ResilienceConfig,
    sink: &ObsSink,
    jobs: usize,
    label: &str,
) {
    let loads: Vec<f64> = loads_pct.iter().map(|&p| p as f64 / 100.0).collect();
    eprintln!(
        "[tenants] {} load point(s) x {} tenants on {jobs} thread(s){label} ...",
        loads.len(),
        base.tenants
    );
    let outs = mosaic_core::tenants::run_tenants_grid(
        base,
        &[base.tenants],
        &loads,
        res,
        sink.handle(),
        sink.interval(),
        jobs,
    );
    let mut rows: Vec<(u64, TenantsRow)> = Vec::new();
    for (&pct, out) in loads_pct.iter().zip(outs) {
        match out {
            Ok((row, report)) => {
                if !res.plan.is_none() {
                    println!(
                        "load {pct}%{label}: dropped {} mosaic / {} linux, verify passes {}",
                        report.mosaic_dropped, report.linux_dropped, report.verify_passes
                    );
                }
                rows.push((pct, row));
            }
            Err(e) => eprintln!("[tenants] load {pct}%{label} aborted: {e}"),
        }
    }
    for (pct, row) in &rows {
        let title = format!(
            "Fairness at {pct}% load, {} tenants, Zipf(theta={:.2}){label}",
            row.tenants, base.theta
        );
        println!(
            "{}",
            render_fairness(&title, &row.mosaic_slots, &row.linux_slots)
        );
    }
    let refs: Vec<(u64, &TenantsRow)> = rows.iter().map(|(p, r)| (*p, r)).collect();
    println!("{}", aggregate_table(&refs).render());
}

fn run_isolation_study(
    base: &TenantsConfig,
    loads_pct: &[u64],
    res: &ResilienceConfig,
    sink: &ObsSink,
    jobs: usize,
) {
    let loads: Vec<f64> = loads_pct.iter().map(|&p| p as f64 / 100.0).collect();
    eprintln!(
        "[tenants] isolation study: {} attacker, {} load point(s) x {} tenants on {jobs} thread(s) ...",
        base.hostile.name(),
        loads.len(),
        base.tenants
    );
    let outs = mosaic_core::tenants::run_isolation_grid(
        base,
        &loads,
        res,
        sink.handle(),
        sink.interval(),
        jobs,
    );
    let mut lines: Vec<IsolationLine> = Vec::new();
    for (&pct, out) in loads_pct.iter().zip(outs) {
        match out {
            Ok(cell) => lines.extend(isolation_lines(&cell)),
            Err(e) => eprintln!("[tenants] load {pct}% aborted: {e}"),
        }
    }
    let title = format!(
        "Victim inflation vs solo baseline: {} attacker ({}x share), {} tenants, quota {}%, priority spread {}",
        base.hostile.name(),
        base.hostile_mult,
        base.tenants,
        base.quota_frac_pct,
        base.priority_spread
    );
    println!("{}", render_isolation(&title, &lines));
}

fn main() {
    let mut args = Args::from_env();
    let jobs = args.jobs(
        "the load points run on N threads; stdout and --obs-out are byte-identical at every N",
    );
    let tenants = args.usize("tenants", 64, 1, "concurrent tenant slots (Zipf ranks)");
    let buckets = args.buckets(64);
    let seed = args.seed(0x7E4A47);
    let theta_centi = args.u64("theta-centi", 99, 0, "Zipf skew over tenants x100 (99: 0.99)");
    let theta = theta_centi as f64 / 100.0;
    let steps = args.u64("steps", 400_000, 0, "scheduled accesses per load point");
    let churn = args.u64("churn", 20_000, 0, "respawn a tail tenant every N accesses (0: off)");
    let fault_ppm = args.fault_ppm();
    let help = format!("slot 0 runs an attack instead of its workload: {HOSTILE}");
    let hostile = match args.text("hostile", "S", &help) {
        None => HostileScenario::None,
        Some(s) => HostileScenario::parse(&s).unwrap_or_else(|| {
            let (flag, expected) = ("hostile".into(), HOSTILE.into());
            args.reject(ArgsError::BadValue { flag, value: s, expected });
            HostileScenario::None
        }),
    };
    let isolation = hostile.is_some();
    let hostile_mult = args.u32("hostile-mult", 4, 0, "attacker footprint in fair shares");
    let help = "churn-storm only: attacker exit/respawn period";
    let hostile_churn = args.u64("hostile-churn", 2_000, 0, help);
    let help = "per-tenant frame quota, percent of the fair share (0: off; 100 under --hostile)";
    let quota_frac = args.u32("quota-frac", if isolation { 100 } else { 0 }, 0, help);
    let help = "reclaim-priority levels across the victims, attacker lowest (4 under --hostile)";
    let priority_spread = args.u32("priority-spread", if isolation { 4 } else { 1 }, 0, help);
    let loads_pct = read_loads(&mut args);
    let shared_traces = args.switch(
        "shared-traces",
        "collapse identical-workload slots onto one shared recorded trace (the group leader's \
         seed); changes the schedule, so goldens use the default off",
    );
    let concurrent_alloc = args.switch(
        "concurrent-alloc",
        "mirror Mosaic's residency into the lock-free concurrent Iceberg table, cross-checked \
         at verify, and race a contention exercise over the first load point's schedule, \
         reported on stderr; stdout is unchanged",
    );
    let sink = args.obs("tenants");
    args.finish(ABOUT);

    let base = TenantsConfig {
        tenants,
        mem_buckets: buckets,
        seed,
        theta,
        load: 0.0, // per-cell override from --loads
        steps,
        churn_every: churn,
        mix: TenantMix::Rotate,
        hostile,
        hostile_mult,
        hostile_churn_every: hostile_churn,
        quota_frac_pct: quota_frac,
        priority_spread,
        shared_traces,
        concurrent_alloc,
    };

    if base.concurrent_alloc {
        // Race the lock-free allocator for real before the sweep: the
        // first load point's schedule, partitioned across `jobs` worker
        // threads (and serially as the baseline). Reported on stderr
        // only, so stdout stays golden-comparable.
        let mut probe = base.clone();
        probe.load = loads_pct[0] as f64 / 100.0;
        let schedule = mosaic_core::tenants::build_schedule(&probe);
        for threads in [1, jobs.max(2)] {
            let rep = mosaic_core::tenants::contention_exercise(&probe, &schedule, threads);
            eprintln!(
                "[tenants] contention: threads={} ops={} inserts={} removes={} conflicts={} final_len={} oracle={}",
                rep.threads,
                rep.ops,
                rep.inserts,
                rep.removes,
                rep.conflicts,
                rep.final_len,
                if rep.oracle_ok { "ok" } else { "DIVERGED" }
            );
            assert!(
                rep.oracle_ok,
                "concurrent allocator diverged from its serialized replay"
            );
        }
    }

    if sink.is_enabled() {
        sink.handle().meta(&[
            ("tenants", Value::from(tenants as u64)),
            ("buckets", Value::from(buckets as u64)),
            ("seed", Value::from(seed)),
            ("theta", Value::from(theta)),
            ("steps", Value::from(steps)),
            ("churn", Value::from(churn)),
            ("fault_ppm", Value::from(u64::from(fault_ppm))),
            ("hostile", Value::from(hostile.name())),
            ("quota_frac", Value::from(u64::from(quota_frac))),
        ]);
    }

    let faults = ResilienceConfig::at_ppm(fault_ppm, seed ^ 0xFA17, 250_000);
    if isolation {
        run_isolation_study(&base, &loads_pct, &faults, &sink, jobs);
        sink.finish();
        return;
    }

    run_sweep(
        &base,
        &loads_pct,
        &ResilienceConfig::none(),
        &sink,
        jobs,
        "",
    );

    if fault_ppm > 0 {
        run_sweep(&base, &loads_pct, &faults, &sink, jobs, " [faults]");
    }

    sink.finish();
}
