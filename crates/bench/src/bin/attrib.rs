//! Regenerates the **miss-attribution** report: differential 3C curves
//! (compulsory / capacity / conflict) for every vanilla and mosaic TLB
//! cell over an identical reference stream, plus the memory-fault
//! taxonomy and per-tenant blame table for both memory managers.
//!
//! ```text
//! attrib [--buckets N] [--entries N] [--load PCT] [--seed S] [--fault-ppm P]
//!        [--jobs N] [--obs-out F] [--obs-interval R] [--obs-format jsonl|trace]
//! ```
//!
//! Attribution is always on in this binary (it *is* the attribution
//! report); `--obs-out` additionally exports the raw stream, including
//! the `{"t":"attrib",...}` table records, for `obs_report`. An
//! `--entries` value that some swept associativity cannot divide into
//! whole sets is a usage error (exit 2).

use mosaic_bench::obs::ObsSink;
use mosaic_bench::{Args, JOBS_HELP};
use mosaic_core::sim::attrib::{render, run_attrib, AttribConfig};
use mosaic_obs::{ObsHandle, Value};

const USAGE: &str = "\
attrib [--buckets N] [--entries N] [--load PCT] [--seed S] [--fault-ppm P]
       [--jobs N] [--obs-out F] [--obs-interval R] [--obs-format jsonl|trace]

Regenerates the miss-attribution report: 3C classification of every TLB
design's misses (conflict misses removed by Mosaic-k vs vanilla over the
same trace), the memory-fault taxonomy, and the per-tenant blame table.
Defaults: --buckets 16 (1024 frames), --entries 1056, --load 105,
--fault-ppm 0. --entries must be a positive multiple of 4, the widest
set-associative way count swept. Output is byte-identical at any --jobs
value.";

fn main() {
    let args = Args::from_env();
    args.maybe_help(&format!("{USAGE}\n{JOBS_HELP}"));
    args.only_or_exit(
        &[
            &["buckets", "entries", "load", "seed", "fault-ppm", "jobs"][..],
            &ObsSink::FLAGS,
        ]
        .concat(),
    );
    let jobs = args.jobs_or_exit();

    let mut cfg = AttribConfig::paper();
    cfg.mem_buckets = args.buckets_or_exit(cfg.mem_buckets);
    cfg.tlb_entries = args.entries_or_exit(cfg.tlb_entries, &cfg.associativities);
    cfg.load_pct = args.get_u64("load", cfg.load_pct);
    cfg.seed = args.get_u64("seed", cfg.seed);
    cfg.fault_ppm = args.get_u64("fault-ppm", u64::from(cfg.fault_ppm)) as u32;

    let sink = ObsSink::from_args(&args, "attrib");
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
