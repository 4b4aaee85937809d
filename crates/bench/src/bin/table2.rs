//! Regenerates **Table 2**: the workloads used for evaluating the
//! hardware TLB and OS designs, with footprints and access counts
//! measured from the actual generators. `table2 --help` lists the flags.
//!
//! `--obs-out` exports one `workload.inventory` event per row (name,
//! footprint, access count) as JSONL; render with `obs_report`.

use mosaic_bench::Args;
use mosaic_core::sim::report::{group_digits, Table};
use mosaic_core::workloads::standard_suite;
use mosaic_obs::Value;

const ABOUT: &str = "Regenerates Table 2 (workload inventory) in one cheap pass per workload.";

fn main() {
    let mut args = Args::from_env();
    let scale = args.u32("scale", 1, 0, "workload size: 0 is a seconds-fast smoke run");
    let printer = args.printer();
    let sink = args.obs("table2");
    args.finish(ABOUT);
    if sink.is_enabled() {
        sink.handle()
            .meta(&[("scale", Value::from(u64::from(scale)))]);
    }

    let mut t = Table::new(vec![
        "Workload".into(),
        "Description".into(),
        "Memory footprint (MiB)".into(),
        "Accesses (approx)".into(),
    ])
    .with_title(&format!(
        "Table 2: workloads used for evaluating hardware TLB and OS designs (scale {scale})"
    ));
    for (i, w) in standard_suite(scale, 0xB5EED).into_iter().enumerate() {
        let m = w.meta();
        sink.handle().event(
            i as u64,
            "workload.inventory",
            &[
                ("name", Value::from(m.name)),
                ("footprint_bytes", Value::from(m.footprint_bytes)),
                ("approx_accesses", Value::from(m.approx_accesses)),
            ],
        );
        t.row(vec![
            m.name.to_string(),
            m.description.to_string(),
            format!("{:.0}", m.footprint_mib()),
            group_digits(m.approx_accesses),
        ]);
    }
    printer.print(&t);
    println!(
        "Paper footprints (Table 2): Graph500 1010 MiB, BTree 2618 MiB, GUPS 8207 MiB,\n\
         XSBench 1012 MiB — scaled down here; the access *patterns* are what the TLB sees."
    );
    sink.finish();
}
