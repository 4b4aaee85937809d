//! Regenerates **Figure 6**: TLB misses on Graph500, BTree, GUPS and
//! XSBench with Mosaic and Vanilla TLBs across ToC sizes (arity) and
//! set-associativity, plus the Table 2 workload summary. `fig6 --help`
//! lists the flags.
//!
//! `--obs-out` exports the whole TLB grid's counters (and
//! `--obs-interval R` interval snapshots) as JSONL; render with
//! `obs_report`. Wall time and ns/access per workload go to stderr.

use mosaic_bench::{Args, ArgsError};
use mosaic_core::sim::dual::KernelConfig;
use mosaic_core::sim::fig6::{render, run_workload_observed_jobs, Fig6Config, TlbKind};
use mosaic_core::sim::platform::TlbPlatform;
use mosaic_core::sim::report::Table;
use mosaic_core::mmu::{Arity, Associativity};
use mosaic_core::workloads::{standard_suite, Workload};

const ABOUT: &str = "\
Regenerates Figure 6 (TLB misses across arity x associativity) and the
Table 2 workload summary.";

const WORKLOADS: &str = "graph500|btree|gups|xsbench|all";

fn main() {
    let mut args = Args::from_env();
    let which = args.positional("WORKLOAD", &format!("{WORKLOADS} (default all)"));
    let which = which.map_or_else(|| "all".to_string(), |s| s.to_lowercase());
    if !WORKLOADS.split('|').any(|w| w == which) {
        let message = format!("unknown workload {which:?}; expected {WORKLOADS}");
        args.reject(ArgsError::Usage(message));
    }
    let scale = args.u32("scale", 1, 0, "workload size: 0 is a seconds-fast smoke run");
    let associativities = Associativity::FIGURE6_SWEEP.to_vec();
    let entries = args.entries(
        1024,
        &associativities,
        "TLB entries, a positive multiple of 8 (the widest set-associative way count swept)",
    );
    let kernel = !args.switch("no-kernel", "leave out the kernel's huge-page references");
    let printer = args.printer();
    let seed = args.seed(0xF166);
    let jobs = args.jobs(
        "the stream is recorded once per workload and the associativities split into up to \
         N parts, each replaying it through its own simulator on its own thread; stdout is \
         byte-identical at every N, but the --obs-out JSONL layout depends on the part count",
    );
    let batch = args.batch();
    let sink = args.obs("fig6");
    args.finish(ABOUT);

    let mut workloads: Vec<Box<dyn Workload>> = standard_suite(scale, 0xB5EED)
        .into_iter()
        .filter(|w| which == "all" || w.meta().name.to_lowercase() == which)
        .collect();
    let cfg = Fig6Config {
        tlb_entries: entries,
        associativities,
        arities: [4, 8, 16, 32, 64].map(Arity::new).to_vec(),
        kernel: kernel.then(KernelConfig::default),
        seed,
        batch,
    };
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
        printer.print(&render(&name, &rows));
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
