//! Criterion bench for the full simulator step: workload accesses
//! driven through an entire Figure 6 instance grid
//! ([`DualSim::access_batch`], the one step engine) in the drive
//! loops' chunk size, plus a per-design cost breakdown. Guards the hot-path
//! micro-optimisations (SoA TLB sets, set-index masks/reciprocals,
//! per-batch walk memos) against regression; these rows are the
//! ns/access budget's source of truth (see PERFORMANCE.md).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use mosaic_core::hash::SplitMix64;
use mosaic_core::mem::VirtAddr;
use mosaic_core::mmu::{Arity, Associativity};
use mosaic_core::sim::dual::{DualSim, KernelConfig};
use mosaic_core::workloads::Access;

const PAGE: u64 = 4096;

fn grid(entries: usize, footprint_pages: u64, kernel: Option<KernelConfig>) -> DualSim {
    DualSim::new(
        entries,
        &Associativity::FIGURE6_SWEEP,
        &[4, 8, 16, 32, 64].map(Arity::new),
        footprint_pages,
        kernel,
        0xF166,
    )
}

/// A reproducible random reference stream over `pages` distinct pages.
fn trace(len: usize, pages: u64, seed: u64) -> Vec<Access> {
    let mut rng = SplitMix64::new(seed);
    (0..len)
        .map(|_| Access::load(VirtAddr(rng.next_below(pages) * PAGE)))
        .collect()
}

/// `len` references in load+store pairs on random pages, the way GUPS
/// issues its read-modify-write updates: every second reference repeats
/// its predecessor's page.
fn pair_trace(len: usize, pages: u64, seed: u64) -> Vec<Access> {
    trace(len / 2, pages, seed)
        .into_iter()
        .flat_map(|load| [load, Access::store(load.addr)])
        .collect()
}

fn bench_batched(c: &mut Criterion) {
    // An 8192-access trace through the full Figure 6 grid at the
    // paper's 1024-entry TLB, consumed in DEFAULT_BATCH chunks (exactly
    // what the fig6/table4 drive loops feed).
    // Obs counters are bound, as they are in the figure bins, so the
    // batch-end publication cost is measured. The 16384-page pool spills
    // the 1024-entry sets, keeping the grid in the miss-heavy regime the
    // figures run in, where the per-batch walk memos matter. Per-iter
    // time covers 8192 accesses; divide accordingly. The random-load
    // stream never repeats a page back to back; the load+store-pair
    // stream repeats every second reference, which the engine counts as
    // a hit without a lookup.
    let refs = trace(8192, 16384, 7);
    let pairs = pair_trace(8192, 16384, 7);
    let obs = mosaic_obs::ObsHandle::enabled();
    let mut g = c.benchmark_group("dual_sim_batch");
    for (kname, refs, kernel) in [
        ("no_kernel", &refs, None),
        ("with_kernel", &refs, Some(KernelConfig::default())),
        ("load_store_pairs", &pairs, Some(KernelConfig::default())),
    ] {
        g.bench_with_input(BenchmarkId::new("batched", kname), &kernel, |b, &kernel| {
            let mut sim = grid(1024, 16384, kernel);
            sim.set_obs(&obs);
            sim.access_batch(refs); // warm translations + TLBs
            b.iter(|| {
                for chunk in refs.chunks(mosaic_core::sim::fig6::DEFAULT_BATCH) {
                    sim.access_batch(black_box(chunk));
                }
            })
        });
    }
    g.finish();
}

fn bench_designs(c: &mut Criterion) {
    // The ns/access budget grid (PERFORMANCE.md): per-design batched
    // step cost across the Figure 6 associativity sweep. Every grid
    // carries the vanilla baseline instance, so the mosaic rows read as
    // "vanilla + mosaic-N"; the delta against `vanilla` at the same
    // associativity is the mosaic instance's cost.
    let refs = trace(8192, 16384, 9);
    let mut g = c.benchmark_group("design_step");
    let designs: [(&str, &[usize]); 3] = [
        ("vanilla", &[]),
        ("vanilla+mosaic4", &[4]),
        ("vanilla+mosaic64", &[64]),
    ];
    for assoc in Associativity::FIGURE6_SWEEP {
        for (name, arities) in designs {
            g.bench_with_input(
                BenchmarkId::new(name, assoc),
                &arities,
                |b, &arities| {
                    let arities: Vec<Arity> = arities.iter().map(|&a| Arity::new(a)).collect();
                    let mut sim =
                        DualSim::new(1024, &[assoc], &arities, 16384, None, 0xF166);
                    sim.access_batch(&refs);
                    b.iter(|| sim.access_batch(black_box(&refs)))
                },
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench_batched, bench_designs);
criterion_main!(benches);
