//! One benchmark process: builds a workload's inputs from a seed, times
//! calls into the experiment's public entry point, checks the results,
//! and prints one JSON line of raw measurements. `perfbench/run.py`
//! runs several of these processes and reduces them to the metrics
//! `BENCHMARK.json` declares.
//!
//! ```text
//! perfbench --workload <name> --seed <n> [--mode e2e|trace] [--size full|smoke] [--budget-ms <ms>]
//! ```

mod digest;
mod json;
mod layers;
mod trace;
mod workloads;

use json::Obj;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Name, Size};

struct Args {
    workload: Name,
    seed: u64,
    mode: String,
    size: Size,
    budget_ms: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut mode = "e2e".to_string();
    let mut size = Size::Full;
    let mut budget_ms = 0u64;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Name::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--mode" if ["e2e", "trace"].contains(&value.as_str()) => mode = value,
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "smoke" => Size::Smoke,
                    _ => return Err(format!("unknown size {value:?}")),
                }
            }
            "--budget-ms" => {
                budget_ms = value
                    .parse()
                    .map_err(|e| format!("--budget-ms {value:?}: {e}"))?
            }
            _ => return Err(format!("unknown flag {flag} {value}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        mode,
        size,
        budget_ms,
    })
}

/// Process high-water resident set, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    proc_status_kib("VmHWM:") / 1024.0
}

/// Current resident set, bytes (`VmRSS`).
pub fn rss_bytes() -> f64 {
    proc_status_kib("VmRSS:") * 1024.0
}

fn proc_status_kib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(f64::NAN)
}

/// One run of a fixed calibration loop, in ms: a 4 MiB random
/// read-modify-write walk, then a miniature of the simulators' hot path
/// (an 8-way set-associative probe with a hash-map update on each
/// miss). The loop belongs to the benchmark, not the program, so it
/// reads the same on every commit and tracks only how fast the host is
/// running: memory-walk time and hash-map time each follow part of the
/// host's swings, and their sum follows more of them than either.
pub fn calib_ms() -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x ^= x >> 31;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 29;
        x
    };
    let mut table = vec![0u64; 1 << 19];
    for _ in 0..2_000_000 {
        let r = next();
        let i = (r as usize) & (table.len() - 1);
        table[i] = table[i].wrapping_add(r);
    }
    black_box(&table);
    let mut sets = vec![u64::MAX; 1024];
    let mut misses: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for i in 0..300_000usize {
        let key = next() % 32_768;
        let set = (key % 128) as usize * 8;
        if !sets[set..set + 8].contains(&key) {
            sets[set + i % 8] = key;
            *misses.entry(key).or_insert(0) += 1;
        }
    }
    black_box(&misses);
    t.elapsed().as_secs_f64() * 1e3
}

/// Set-ups timed per process: at least the first bound, and more, up to
/// the second, while set-up has taken under a tenth of the budget.
const SETUPS: (usize, usize) = (3, 64);

/// Sets up [`SETUPS`] times, then makes timed calls while another call
/// still fits in `budget_ms` (at least one), counted from the first
/// set-up. The calibration loop runs before the set-ups and before every
/// call, so its samples span the whole measurement. Every call must
/// return the same digest.
fn e2e(args: &Args) -> String {
    let mut calib = vec![calib_ms()];
    let budget_s = args.budget_ms as f64 / 1e3;
    let started = Instant::now();
    let mut setup_s = Vec::new();
    let mut input = None;
    while setup_s.len() < SETUPS.0
        || (setup_s.len() < SETUPS.1 && started.elapsed().as_secs_f64() < budget_s / 10.0)
    {
        drop(input.take());
        let t = Instant::now();
        input = Some(black_box(workloads::setup(
            args.workload,
            args.seed,
            args.size,
        )));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let input = input.expect("set up at least once");
    let mut run_s = Vec::new();
    let mut outcome: Option<workloads::Outcome> = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut violations = Vec::new();
    loop {
        calib.push(calib_ms());
        let t = Instant::now();
        let o = black_box(workloads::run(black_box(&input)));
        run_s.push(t.elapsed().as_secs_f64());
        attempted += o.refs * o.structures;
        failed += o.failed;
        violations.extend(o.violations.iter().cloned());
        if let Some(first) = &outcome {
            if first.digest != o.digest {
                violations.push(format!(
                    "digest changed between calls: {} then {}",
                    first.digest, o.digest
                ));
            }
        } else {
            outcome = Some(o);
        }
        let last = run_s[run_s.len() - 1];
        if started.elapsed().as_secs_f64() + last > budget_s {
            break;
        }
    }
    let o = outcome.expect("at least one call ran");
    violations.dedup();
    Obj::default()
        .str("workload", args.workload.as_str())
        .int("seed", args.seed)
        .nums("setup_s", &setup_s)
        .nums("run_s", &run_s)
        .int("refs", o.refs)
        .int("structures", o.structures)
        .int("attempted", attempted)
        .int("failed", failed)
        .str("digest", &o.digest)
        .num("mosaic_ratio", o.mosaic_ratio)
        .strs("violations", &violations)
        .num("peak_rss_mib", peak_rss_mib())
        .nums("calib_ms", &calib)
        .finish()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let line = if args.mode == "trace" {
        layers::traced(args.workload, args.seed, args.size)
    } else {
        e2e(&args)
    };
    println!("{line}");
    ExitCode::SUCCESS
}
