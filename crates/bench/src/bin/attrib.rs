//! Regenerates the **miss-attribution** report: differential 3C curves
//! (compulsory / capacity / conflict) for every vanilla and mosaic TLB
//! cell over an identical reference stream, plus the memory-fault
//! taxonomy and per-tenant blame table for both memory managers.
//! `attrib --help` lists the flags.
//!
//! Attribution is always on in this binary (it *is* the attribution
//! report); `--obs-out` additionally exports the raw stream, including
//! the `{"t":"attrib",...}` table records, for `obs_report`.

use mosaic_bench::{Args, ArgsError};
use mosaic_core::sim::attrib::{render, run_attrib, AttribConfig};
use mosaic_obs::{ObsHandle, Value};

const ABOUT: &str = "\
Regenerates the miss-attribution report: 3C classification of every TLB
design's misses (conflict misses removed by Mosaic-k vs vanilla over the
same trace), the memory-fault taxonomy, and the per-tenant blame table.
Attribution is always on here; --attrib is accepted and changes nothing.";

fn main() {
    let mut args = Args::from_env();
    let mut cfg = AttribConfig::paper();
    cfg.mem_buckets = args.buckets(cfg.mem_buckets);
    cfg.tlb_entries = args.entries(
        cfg.tlb_entries,
        &cfg.associativities,
        "TLB entries, a positive multiple of 4 (the widest set-associative way count swept)",
    );
    let help = "memory cells' footprint as a percent of the pool";
    cfg.load_pct = args.u64("load", cfg.load_pct, 0, help);
    // Graph500's generator needs a 64 KiB footprint at least.
    if cfg.footprint_pages() < 16 {
        let frames = cfg.num_frames();
        let need = format!("large enough for a 64 KiB footprint on {frames} frames");
        args.reject(ArgsError::Usage(format!("--load {} must be {need}", cfg.load_pct)));
    }
    cfg.seed = args.seed(cfg.seed);
    cfg.fault_ppm = args.fault_ppm();
    let jobs = args.jobs(
        "the TLB grid and memory cells run on N threads; stdout and --obs-out are \
         byte-identical at every N",
    );
    let sink = args.obs("attrib");
    args.finish(ABOUT);

    // This binary renders attribution to stdout, so the tables are
    // collected even without --obs-out / --attrib: fall back to a
    // private enabled handle when the sink is a no-op.
    let private;
    let handle: &ObsHandle = if sink.is_enabled() {
        sink.handle().set_attrib(true);
        sink.handle()
    } else {
        private = ObsHandle::enabled();
        private.set_attrib(true);
        &private
    };
    handle.meta(&[
        ("buckets", Value::from(cfg.mem_buckets as u64)),
        ("entries", Value::from(cfg.tlb_entries as u64)),
        ("load_pct", Value::from(cfg.load_pct)),
        ("seed", Value::from(cfg.seed)),
        ("fault_ppm", Value::from(u64::from(cfg.fault_ppm))),
    ]);

    eprintln!(
        "[attrib] {} frames at {} % load, {} TLB entries, {} thread(s) ...",
        cfg.num_frames(),
        cfg.load_pct,
        cfg.tlb_entries,
        jobs
    );
    let report = run_attrib(&cfg, handle, sink.interval(), jobs);
    print!("{}", render(&report));
    sink.finish();
}
