//! The §5.3 page-coloring question, answered empirically.
//!
//! "Mosaic's randomization of virtual-to-physical mappings may be
//! sufficient in expectation to avoid the cache pathologies prevented by
//! page coloring, which we leave for future work." — this driver runs a
//! hotspot workload over a physically-indexed L2 model under four frame
//! placements and compares cache miss rates.
//! `coloring --help` lists the flags.

use mosaic_bench::{Args, ArgsError};
use mosaic_core::sim::dcache::{run_coloring, Placement};
use mosaic_core::sim::report::Table;
use mosaic_core::workloads::{Gups, GupsConfig};

const ABOUT: &str = "Answers the §5.3 page-coloring question over four frame placements.";

fn main() {
    let mut args = Args::from_env();
    let cache_kib = args.u64("cache-kib", 512, 4, "L2 capacity in KiB, a power of two");
    let ways = args.usize("ways", 8, 1, "L2 ways; must divide the cache's 64-byte lines");
    // A power of two, capped so that the line count cannot overflow.
    let lines = (cache_kib.is_power_of_two() && cache_kib <= 1 << 40).then(|| cache_kib * 16);
    let problem = match lines {
        None => Some(format!("--cache-kib {cache_kib} must be a power of two of at most 2^40")),
        Some(lines) if !lines.is_multiple_of(ways as u64) => {
            Some(format!("--ways {ways} must be a divisor of the cache's {lines} lines"))
        }
        Some(_) => None,
    };
    if let Some(message) = problem {
        args.reject(ArgsError::Usage(message));
    }
    args.finish(ABOUT);
    let cache_bytes = cache_kib << 10;

    // A working set sized to fit the cache *if* colors spread evenly —
    // the regime where placement decides between fitting and thrashing.
    let pages = cache_bytes / 4096;
    let make = || {
        Gups::new(
            GupsConfig {
                table_bytes: pages * 4096 * 3 / 4,
                updates: 400_000,
            },
            7,
        )
    };

    let mut t = Table::new(vec![
        "Frame placement".into(),
        "L2 miss rate (%)".into(),
        "Colors used".into(),
    ])
    .with_title(&format!(
        "Page-coloring question (§5.3): {} KiB {ways}-way physically-indexed cache",
        cache_bytes >> 10
    ));
    for p in Placement::ALL {
        eprintln!("[coloring] {} ...", p.name());
        let r = run_coloring(p, cache_bytes, ways, &mut make(), 21);
        t.row(vec![
            p.name().to_string(),
            format!("{:.2}", r.miss_rate * 100.0),
            r.colors_used.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Reading: at the near-full memory utilizations Mosaic targets, hashed\n\
         placement spreads frames across cache colors about as well as sequential\n\
         allocation or explicit coloring — supporting §5.3's conjecture. One nuance\n\
         the experiment surfaced: at *low* pool occupancy, Mosaic's 64-frame buckets\n\
         alias with power-of-two color counts (color ≈ slot index), clustering colors\n\
         until the slots fill; see EXPERIMENTS.md."
    );
}
