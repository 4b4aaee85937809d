//! Regenerates **Table 5** (FPGA size/latency of the tabulation-hash
//! circuit vs hash-function count) and the §4.4 28 nm ASIC results.
//! `table5 --help` lists the flags.
//!
//! `--obs-out` exports one `fpga.synth` / `asic.synth` event per
//! synthesis point as JSONL; render with `obs_report`.

use mosaic_bench::Args;
use mosaic_core::hw::{asic, circuit::TabHashCircuit, fpga};
use mosaic_core::sim::report::Table;
use mosaic_core::sim::run_cells;
use mosaic_obs::{ObsHandle, Value};

const ABOUT: &str = "\
Regenerates Table 5 (FPGA cost of the tabulation-hash circuit) and the
28 nm ASIC results.";

fn main() {
    let mut args = Args::from_env();
    let jobs = args.jobs(
        "the per-H synthesis points run as independent cells, emitted in H order afterwards; \
         stdout and --obs-out are byte-identical at every N",
    );
    let printer = args.printer();
    let sink = args.obs("table5");
    args.finish(ABOUT);

    // First prove the datapath is bit-exact against the behavioural model
    // (the "RTL vs golden model" check a hardware flow would run).
    let circuit = TabHashCircuit::new(5, 8, 0xC1C0);
    let golden = mosaic_core::hash::TabulationHasher::new(5, 8, 0xC1C0);
    for key in 0..10_000u64 {
        let (outs, _) = circuit.evaluate(key * 0x9E37_79B9);
        assert_eq!(outs, golden.hash_all(key * 0x9E37_79B9));
    }
    println!("datapath check: 10,000 keys x 8 outputs bit-exact against the behavioural model\n");

    let mut t = Table::new(vec![
        "H".into(),
        "LUTs".into(),
        "Registers".into(),
        "F7 Mux".into(),
        "F8 Mux".into(),
        "Latency".into(),
    ])
    .with_title("Table 5: size and latency of the Tabulation Hash circuit on an FPGA");
    // Each synthesis point is a pure function of H, so the sweep fans out
    // as cells; rows/events are emitted post-join in H order regardless.
    let points = run_cells(
        jobs,
        &ObsHandle::noop(),
        vec![1usize, 2, 4, 8],
        |_, h, _| (fpga::synthesize(h), asic::synthesize(h)),
    );
    for (r, _) in &points {
        sink.handle().event(
            r.hash_functions as u64,
            "fpga.synth",
            &[
                ("h", Value::from(r.hash_functions as u64)),
                ("luts", Value::from(r.luts as u64)),
                ("registers", Value::from(r.registers as u64)),
                ("latency_ns", Value::from(r.latency_ns)),
            ],
        );
        t.row(vec![
            r.hash_functions.to_string(),
            r.luts.to_string(),
            r.registers.to_string(),
            r.f7_muxes.to_string(),
            r.f8_muxes.to_string(),
            format!("{:.3}ns", r.latency_ns),
        ]);
    }
    printer.print(&t);
    println!(
        "Max FPGA frequency: {:.0} MHz (latency flat in H — probing is free)\n",
        fpga::synthesize(8).max_frequency_mhz()
    );

    let mut a = Table::new(vec![
        "H".into(),
        "Max freq (GHz)".into(),
        "Latency (ps)".into(),
        "Slack (ps)".into(),
        "Area (KGE)".into(),
    ])
    .with_title("§4.4: 28 nm CMOS synthesis (worst-case corner: TrFF, VddMIN, RCBEST, 1V, 125C)");
    for (f, r) in &points {
        let h = f.hash_functions;
        sink.handle().event(
            h as u64,
            "asic.synth",
            &[
                ("h", Value::from(h as u64)),
                ("max_freq_ghz", Value::from(r.max_freq_ghz)),
                ("latency_ps", Value::from(r.latency_ps)),
                ("area_kge", Value::from(r.area_kge)),
            ],
        );
        a.row(vec![
            h.to_string(),
            format!("{:.1}", r.max_freq_ghz),
            format!("{:.0}", r.latency_ps),
            format!("{:+.0}", r.slack_ps),
            format!("{:.3}", r.area_kge),
        ]);
    }
    printer.print(&a);
    println!(
        "Conclusion (paper §4.4): the 4 GHz synthesis result indicates a mosaic TLB is\n\
         unlikely to affect clock frequency; area is ~13.8 KGE at H = 8."
    );
    sink.finish();
}
