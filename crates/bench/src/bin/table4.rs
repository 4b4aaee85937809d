//! Regenerates **Table 4**: number of memory swapping operations while
//! increasing the workload sizes, Linux baseline vs Mosaic (Horizon LRU).
//! `table4 --help` lists the flags.
//!
//! The paper sweeps footprints from 101.5 % to 157.7 % of a 4 GiB pool;
//! this driver preserves those ratios over a scaled pool (`--buckets`
//! Iceberg buckets of 64 frames, default 64 = 16 MiB).
//!
//! With `--fault-ppm N` the same sweep runs under fault injection
//! (transient allocation failures, swap-I/O error bursts, and ToC
//! bit-flips, each at N ppm) and appends the resilience table: faults
//! injected, retries, backoff, re-walks, dropped accesses, and
//! structural `verify()` passes.
//!
//! With `--obs-out F` the run additionally exports counters, gauges,
//! interval snapshots (`--obs-interval R` references apart) and — under
//! `--fault-ppm` — the replayable `fault.injected`/`fault.recovered`/
//! `fault.unrecovered` event timeline; render `F` with `obs_report`.

use mosaic_bench::Args;
use mosaic_core::sim::platform::SwapPlatform;
use mosaic_core::sim::pressure::{
    render_resilience, render_table4, run_table4, PressureConfig, PressureWorkload,
    ResilienceConfig,
};
use mosaic_obs::Value;

const ABOUT: &str = "\
Regenerates Table 4 (swap I/O under pressure, Linux vs Mosaic). Under
--fault-ppm the sweep runs again with fault injection and appends the
resilience table.";

fn main() {
    let mut args = Args::from_env();
    let jobs = args.jobs(
        "the (workload, footprint-ratio) cells run on N threads, each recording its workload \
         once and replaying it for both managers, and each deriving its fault-injector seed \
         from its cell index; stdout and --obs-out are byte-identical at every N",
    );
    let buckets = args.buckets(64);
    let fault_ppm = args.fault_ppm();
    let cfg = PressureConfig {
        mem_buckets: buckets,
        seed: args.seed(0x7AB1E),
        batch: args.batch(),
    };
    let printer = args.printer();
    let sink = args.obs("table4");
    args.finish(ABOUT);
    if sink.is_enabled() {
        sink.handle().meta(&[
            ("buckets", Value::from(buckets as u64)),
            ("seed", Value::from(cfg.seed)),
            ("fault_ppm", Value::from(u64::from(fault_ppm))),
        ]);
    }

    println!("{}", SwapPlatform::new(buckets * 64).table().render());

    let ratios = PressureConfig::paper_ratios();
    eprintln!(
        "[table4] {} cells on {jobs} thread(s) ...",
        PressureWorkload::ALL.len() * ratios.len()
    );
    let t0 = std::time::Instant::now();
    let (rows, reports): (Vec<_>, Vec<_>) = run_table4(
        &cfg,
        &ratios,
        &ResilienceConfig::none(),
        sink.handle(),
        sink.interval(),
        jobs,
    )
    .into_iter()
    .map(|cell| cell.unwrap_or_else(|e| panic!("fault-free pressure run cannot fail: {e}")))
    .unzip();
    let wall = t0.elapsed();
    let stepped: u64 = reports.iter().map(|r| r.accesses_driven).sum();
    if stepped > 0 {
        eprintln!(
            "[table4] sweep: {:.1} ms wall, {:.2} ns/access ({stepped} accesses, batch={})",
            wall.as_secs_f64() * 1e3,
            wall.as_secs_f64() * 1e9 / stepped as f64,
            cfg.batch,
        );
    }

    printer.print(&render_table4(&rows));

    // Shape commentary, mirroring §4.3's reading of the table.
    let boundary_losses = rows
        .iter()
        .filter(|r| {
            let ratio = r.footprint_bytes as f64 / (buckets as f64 * 64.0 * 4096.0);
            ratio < 1.05 && r.difference_pct() < 0.0
        })
        .count();
    let mid_wins = rows
        .iter()
        .filter(|r| {
            let ratio = r.footprint_bytes as f64 / (buckets as f64 * 64.0 * 4096.0);
            ratio >= 1.05 && r.difference_pct() >= 0.0
        })
        .count();
    println!(
        "Shape: {boundary_losses} boundary rows where Mosaic swaps more (paper: the first\n\
         row of each workload, because Linux utilizes ~1% more memory), {mid_wins} rows at\n\
         higher footprints where Mosaic matches or beats Linux (paper: up to 29%)."
    );

    if fault_ppm > 0 {
        let res = ResilienceConfig::at_ppm(fault_ppm, cfg.seed ^ 0xFA17, 250_000);
        eprintln!(
            "[table4] {} cells on {jobs} thread(s) (faults {fault_ppm} ppm) ...",
            PressureWorkload::ALL.len() * ratios.len()
        );
        let mut grid = Vec::new();
        for w in PressureWorkload::ALL {
            for &ratio in &ratios {
                grid.push((w, ratio));
            }
        }
        let mut frows = Vec::new();
        let outs = run_table4(&cfg, &ratios, &res, sink.handle(), sink.interval(), jobs);
        for ((w, ratio), out) in grid.into_iter().zip(outs) {
            match out {
                Ok(row) => frows.push(row),
                Err(e) => {
                    eprintln!("[table4] {} at ratio {ratio:.3} aborted: {e}", w.name());
                }
            }
        }
        printer.print(&render_resilience(&frows));
    }

    sink.finish();
}
