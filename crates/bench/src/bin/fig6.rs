//! Regenerates **Figure 6**: TLB misses on Graph500, BTree, GUPS and
//! XSBench with Mosaic and Vanilla TLBs across ToC sizes (arity) and
//! set-associativity, plus the Table 2 workload summary.
//!
//! ```text
//! fig6 [graph500|btree|gups|xsbench|all] [--scale N] [--entries N] [--no-kernel] [--csv]
//!      [--seed S] [--obs-out F] [--obs-interval R] [--obs-format F] [--attrib]
//!      [--jobs N] [--batch N]
//! ```
//!
//! `--scale 0` is a seconds-fast smoke run; `--scale 1` (default) is the
//! benchmark size (tens of MiB footprints). The TLB has `--entries`
//! entries (default 1024, as in Table 1a). `--obs-out` exports the whole
//! TLB grid's counters (and `--obs-interval R` interval snapshots) as
//! JSONL; render with `obs_report`. `--batch N` sets the simulator's
//! chunk size (results and JSONL are byte-identical at every value);
//! wall time and ns/access per workload go to stderr. An `--entries`
//! value that some swept associativity cannot divide into whole sets, an
//! unknown workload and a flag this binary does not read are usage
//! errors (exit 2).

use mosaic_bench::obs::ObsSink;
use mosaic_bench::{Args, JOBS_HELP};
use mosaic_core::sim::dual::KernelConfig;
use mosaic_core::sim::fig6::{
    render, run_workload_observed_jobs, Fig6Config, TlbKind, DEFAULT_BATCH,
};
use mosaic_core::sim::platform::TlbPlatform;
use mosaic_core::sim::report::Table;
use mosaic_core::mmu::{Arity, Associativity};
use mosaic_core::workloads::{standard_suite, Workload};

const USAGE: &str = "\
fig6 [graph500|btree|gups|xsbench|all] [--scale N] [--entries N] [--no-kernel]
     [--csv] [--seed S] [--obs-out F] [--obs-interval R] [--obs-format F]
     [--attrib] [--jobs N] [--batch N]

Regenerates Figure 6 (TLB misses across arity x associativity).
--entries N (default 1024) must be a positive multiple of 8, the widest
set-associative way count swept.
With --jobs N the reference stream is recorded once per workload and the
associativities split into up to N parts, each replaying it through its
own simulator on its own thread.
--batch N sets the simulator's access-batch (chunk) size; it changes
only speed: stdout is byte-identical at every --batch and --jobs value.";

fn main() {
    let args = Args::from_env();
    args.maybe_help(&format!("{USAGE}\n{JOBS_HELP}"));
    args.only_or_exit(
        &[
            &["scale", "entries", "no-kernel", "csv", "seed", "jobs", "batch"][..],
            &ObsSink::FLAGS,
        ]
        .concat(),
    );
    let jobs = args.jobs_or_exit();
    let scale = args.get_u64("scale", 1) as u32;
    let associativities = Associativity::FIGURE6_SWEEP.to_vec();
    let entries = args.entries_or_exit(1024, &associativities);
    let which = args
        .positional()
        .first()
        .map_or_else(|| "all".to_string(), |s| s.to_lowercase());
    let mut workloads: Vec<Box<dyn Workload>> = standard_suite(scale, 0xB5EED)
        .into_iter()
        .filter(|w| which == "all" || w.meta().name.to_lowercase() == which)
        .collect();
    if workloads.is_empty() {
        eprintln!("error: unknown workload {which:?}; expected graph500|btree|gups|xsbench|all");
        std::process::exit(2);
    }

    let cfg = Fig6Config {
        tlb_entries: entries,
        associativities,
        arities: [4, 8, 16, 32, 64].map(Arity::new).to_vec(),
        kernel: if args.has("no-kernel") {
            None
        } else {
            Some(KernelConfig::default())
        },
        seed: args.get_u64("seed", 0xF166),
        batch: args.get_u64("batch", DEFAULT_BATCH as u64) as usize,
    };
    let sink = ObsSink::from_args(&args, "fig6");
    if sink.is_enabled() {
        sink.handle().meta(&[
            ("scale", mosaic_obs::Value::from(u64::from(scale))),
            ("entries", mosaic_obs::Value::from(entries as u64)),
            ("seed", mosaic_obs::Value::from(cfg.seed)),
        ]);
    }

    println!("{}", TlbPlatform {
        tlb_entries: entries,
        ..TlbPlatform::default()
    }
    .table()
    .render());

    // Table 2: workload inventory.
    let mut t2 = Table::new(vec![
        "Workload".into(),
        "Description".into(),
        "Memory footprint (MiB)".into(),
        "Accesses (approx)".into(),
    ])
    .with_title("Table 2: workloads used for evaluating hardware TLB and OS designs");
    for w in &workloads {
        let m = w.meta();
        t2.row(vec![
            m.name.to_string(),
            m.description.to_string(),
            format!("{:.0}", m.footprint_mib()),
            format!("{}", m.approx_accesses),
        ]);
    }
    println!("{}", t2.render());

    // TLB-reach context for the sweep (§2.1's ballpark).
    let mut reach = mosaic_core::sim::report::Table::new(vec![
        "Design".into(),
        "Payload bits/entry".into(),
        "Reach".into(),
    ])
    .with_title(&format!("TLB reach at {entries} entries (7-bit CPFNs)"));
    for row in mosaic_core::mmu::reach::reach_table(entries, &cfg.arities) {
        let design = if row.arity == 1 {
            "Vanilla".to_string()
        } else {
            format!("Mosaic-{}", row.arity)
        };
        reach.row(vec![
            design,
            row.payload_bits.to_string(),
            format!("{} MiB", row.reach_bytes >> 20),
        ]);
    }
    println!("{}", reach.render());

    for w in &mut workloads {
        let name = w.meta().name.to_string();
        eprintln!("[fig6] running {name} on {jobs} thread(s) ...");
        let t0 = std::time::Instant::now();
        let rows = run_workload_observed_jobs(&cfg, w.as_mut(), sink.handle(), sink.interval(), jobs);
        let wall = t0.elapsed();
        // Every TLB instance sees the full reference stream once.
        let stepped: u64 = rows.iter().map(|r| r.stats.accesses).sum();
        if stepped > 0 {
            eprintln!(
                "[fig6] {name}: {:.1} ms wall, {:.2} ns/access ({stepped} accesses, batch={})",
                wall.as_secs_f64() * 1e3,
                wall.as_secs_f64() * 1e9 / stepped as f64,
                cfg.batch,
            );
        }
        let table = render(&name, &rows);
        if args.has("csv") {
            println!("{}", table.render_csv());
        } else {
            println!("{}", table.render());
        }
        // Headline shape check (§4.1): report the Mosaic-4 reduction at
        // 8-way, the configuration closest to shipping hardware.
        if let Some(red) = mosaic_core::sim::fig6::reduction_percent(
            &rows,
            Associativity::Ways(8),
            Arity::new(4),
        ) {
            println!("Mosaic-4 vs vanilla at 8-way: {red:+.1}% miss reduction\n");
        }
        // Sanity: every mosaic row exists for every associativity.
        for assoc in &cfg.associativities {
            assert!(rows
                .iter()
                .any(|r| r.assoc == *assoc && r.kind == TlbKind::Vanilla));
        }
    }
    sink.finish();
}
