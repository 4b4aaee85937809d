//! The §5.3 page-coloring question, answered empirically.
//!
//! "Mosaic's randomization of virtual-to-physical mappings may be
//! sufficient in expectation to avoid the cache pathologies prevented by
//! page coloring, which we leave for future work." — this driver runs a
//! hotspot workload over a physically-indexed L2 model under four frame
//! placements and compares cache miss rates.
//!
//! ```text
//! coloring [--cache-kib N] [--ways N]
//! ```

use mosaic_bench::Args;
use mosaic_core::sim::dcache::{run_coloring, Placement};
use mosaic_core::sim::report::Table;
use mosaic_core::workloads::{Gups, GupsConfig};

const USAGE: &str = "\
coloring [--cache-kib N] [--ways N]

Answers the §5.3 page-coloring question over four frame placements.
The placements share one mutable cache model, so this driver runs
serially and takes no --jobs flag; the parallel sweeps live in
fig6/table3/table4 --jobs N.
  --help        Print this help and exit.";

fn main() {
    let args = Args::from_env();
    args.maybe_help(USAGE);
    args.only_or_exit(&["cache-kib", "ways"]);
    let cache_bytes = args.get_u64("cache-kib", 512) << 10;
    let ways = args.get_u64("ways", 8) as usize;

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
