//! Regenerates **Table 3**: memory utilization under Mosaic page
//! allocation at the point of the first associativity conflict, and the
//! steady-state utilization over the whole workload. `table3 --help`
//! lists the flags.
//!
//! `--buckets` sets memory size in Iceberg buckets of 64 frames (default
//! 64 = 16 MiB, preserving the paper's footprint-to-memory *ratios*
//! against its 4 GiB pool). `--runs` averages over K seeds (paper: 10).
//! `--obs-out` exports counters/gauges (and `--obs-interval R` interval
//! snapshots) as JSONL; render with `obs_report`.

use mosaic_bench::Args;
use mosaic_core::iceberg::stats::Summary;
use mosaic_core::sim::platform::SwapPlatform;
use mosaic_core::sim::pressure::{
    run_pressure_observed, PressureConfig, PressureWorkload, ResilienceConfig,
};
use mosaic_core::sim::report::Table;
use mosaic_core::sim::run_cells;
use mosaic_obs::Value;

const ABOUT: &str = "\
Regenerates Table 3 (memory utilization at first conflict / steady state).";

fn main() {
    let mut args = Args::from_env();
    let jobs = args.jobs(
        "the (footprint-ratio, workload) cells run on N threads, each with its exact \
         per-(workload, run) hash seeds; stdout and --obs-out are byte-identical at every N",
    );
    let buckets = args.buckets(64);
    let runs = args.u64("runs", 3, 1, "seeds averaged per row (paper: 10)");
    let printer = args.printer();
    let sink = args.obs("table3");
    args.finish(ABOUT);
    if sink.is_enabled() {
        sink.handle().meta(&[
            ("buckets", Value::from(buckets as u64)),
            ("runs", Value::from(runs)),
        ]);
    }

    println!("{}", SwapPlatform::new(buckets * 64).table().render());

    let mut table = Table::new(vec![
        "Workload".into(),
        "Footprint (MiB)".into(),
        "First associativity conflict (1-δ, %)".into(),
        "Steady-state utilization (%)".into(),
    ])
    .with_title("Table 3: memory utilization under Mosaic page allocation");

    // The paper's Table 3 rows: footprints ≈ 101.5/107.7/114/120 % of
    // memory, one row per (footprint, workload). Each (ratio, workload)
    // cell is independent, so the grid fans out across `--jobs` threads;
    // seeds stay tied to (workload, run), never to the thread.
    let obs_interval = sink.interval();
    let mut grid = Vec::new();
    for &ratio in &PressureConfig::table3_ratios() {
        for (widx, w) in PressureWorkload::ALL.into_iter().enumerate() {
            grid.push((ratio, widx, w));
        }
    }
    eprintln!("[table3] {} cells x {runs} run(s) on {jobs} thread(s) ...", grid.len());
    let outcomes = run_cells(jobs, sink.handle(), grid, |_, (ratio, widx, w), child| {
        let mut first = Vec::new();
        let mut steady = Vec::new();
        let mut footprint = 0u64;
        for run in 0..runs {
            let cfg = PressureConfig {
                mem_buckets: buckets,
                // Distinct hash seeds per (workload, run), as distinct
                // boots would have.
                seed: 0x7AB1E + run * 131 + widx as u64 * 17,
                batch: mosaic_core::sim::fig6::DEFAULT_BATCH,
            };
            let (row, _) = run_pressure_observed(
                w,
                ratio,
                &cfg,
                &ResilienceConfig::none(),
                child,
                obs_interval,
            )
            .unwrap_or_else(|e| panic!("fault-free pressure run cannot fail: {e}"));
            footprint = row.footprint_bytes;
            if let (Some(f), Some(s)) = (row.first_conflict_pct, row.steady_state_pct) {
                first.push(f);
                steady.push(s);
            }
        }
        (w, footprint, first, steady)
    });
    for (w, footprint, first, steady) in outcomes {
        if first.is_empty() {
            continue; // no conflict at this footprint (headroom run)
        }
        let f = Summary::of(&first);
        let s = Summary::of(&steady);
        table.row(vec![
            w.name().to_string(),
            format!("{:.0}", footprint as f64 / (1 << 20) as f64),
            format!("{:.2} ±{:.2}", f.mean, f.stddev),
            format!("{:.2} ±{:.2}", s.mean, s.stddev),
        ]);
    }

    printer.print(&table);
    println!(
        "Expected shape (paper): first conflict ≈98% across all rows; steady state ≥99%\n\
         and rising with footprint; the Linux baseline begins swapping at ≈99.2%."
    );
    sink.finish();
}
