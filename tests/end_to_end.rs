//! Cross-crate integration: exact, hand-checkable end-to-end runs
//! through the full stack (workload → OS → page tables → both TLBs).

use mosaic_core::prelude::*;
use mosaic_core::sim::dual::DualSim;
use mosaic_core::workloads::Access;

fn feed_pages(sim: &mut DualSim, pages: impl IntoIterator<Item = u64>) {
    let accesses: Vec<Access> = pages
        .into_iter()
        .map(|p| Access::load(VirtAddr(p * PAGE_SIZE)))
        .collect();
    sim.access_batch(&accesses);
}

fn stats_of(
    sim: &DualSim,
    assoc: Associativity,
    arity: Option<usize>,
) -> mosaic_core::mmu::TlbStats {
    sim.results()
        .into_iter()
        .find(|(a, k, _)| *a == assoc && k.map(|x| x.get()) == arity)
        .expect("configured instance")
        .2
}

#[test]
fn cold_misses_are_exactly_one_per_page() {
    let mut sim = DualSim::new(
        256,
        &[Associativity::Full],
        &[Arity::new(4)],
        512,
        None,
        1,
    );
    // 200 distinct pages, each touched twice.
    feed_pages(&mut sim, (0..200).chain(0..200));
    let vanilla = stats_of(&sim, Associativity::Full, None);
    let mosaic = stats_of(&sim, Associativity::Full, Some(4));
    assert_eq!(vanilla.accesses, 400);
    assert_eq!(vanilla.misses, 200, "one cold miss per page");
    // Mosaic: 50 whole-entry misses (one per mosaic page) + 150 sub-misses.
    assert_eq!(mosaic.misses, 200);
    assert_eq!(mosaic.sub_entry_misses, 150);
    // Second pass is all hits for both.
    assert_eq!(vanilla.hits, 200);
    assert_eq!(mosaic.hits, 200);
}

#[test]
fn capacity_cycling_shows_reach_multiplier() {
    // Working set of 256 pages over a 64-entry TLB: vanilla thrashes
    // (LRU cycle), mosaic-4 covers it exactly (64 x 4 = 256).
    let mut sim = DualSim::new(
        64,
        &[Associativity::Full],
        &[Arity::new(4)],
        512,
        None,
        1,
    );
    for _ in 0..10 {
        feed_pages(&mut sim, 0..256);
    }
    let vanilla = stats_of(&sim, Associativity::Full, None);
    let mosaic = stats_of(&sim, Associativity::Full, Some(4));
    assert_eq!(
        vanilla.misses, 2560,
        "every access misses in a looping over-capacity LRU cycle"
    );
    assert_eq!(mosaic.misses, 256, "only the cold pass misses");
}

#[test]
fn sub_page_invalidation_semantics_via_toc() {
    // Drive a run, then verify the OS-side ToCs agree with the manager's
    // CPFNs for every touched page, across two arities.
    let mut sim = DualSim::new(
        128,
        &[Associativity::Ways(4)],
        &[Arity::new(4), Arity::new(16)],
        4096,
        None,
        3,
    );
    feed_pages(&mut sim, (0..1000).map(|i| (i * 7) % 600));
    let os = sim.os();
    for vpn in 0..600u64 {
        let cpfn = os.cpfn_of(Vpn(vpn)).expect("touched page mapped");
        let key = PageKey::new(Asid::new(1), Vpn(vpn));
        let mm = os.mosaic();
        let cands = mm.candidates(key);
        let slot = mm.codec().decode_slot(&cands, cpfn).expect("valid cpfn");
        assert_eq!(
            mm.layout().pfn_of_slot(slot),
            mm.resident_pfn(key).unwrap(),
            "vpn {vpn}: ToC CPFN decodes to the page's actual frame"
        );
    }
}

#[test]
fn kernel_huge_pages_cost_vanilla_almost_nothing() {
    use mosaic_core::sim::dual::KernelConfig;
    // Kernel-only traffic: 512 kernel pages = exactly one 2 MiB mapping.
    let mut sim = DualSim::new(
        64,
        &[Associativity::Full],
        &[Arity::new(4)],
        64,
        Some(KernelConfig {
            pages: 512,
            period: 1,
        }),
        5,
    );
    // Each user access injects one kernel access.
    feed_pages(&mut sim, (0..2000).map(|i| i % 4));
    let vanilla = stats_of(&sim, Associativity::Full, None);
    let mosaic = stats_of(&sim, Associativity::Full, Some(4));
    // Vanilla: 4 user pages + 1 huge kernel entry = 5 cold misses.
    assert_eq!(vanilla.misses, 5);
    // Mosaic must map each kernel page individually: 512 cold misses for
    // kernel + 4 user, then 128 kernel ToCs + 1 user entry fit in 64
    // entries? No — 129 entries > 64, so kernel churn keeps missing.
    assert!(
        mosaic.misses > vanilla.misses * 20,
        "mosaic {} vs vanilla {}",
        mosaic.misses,
        vanilla.misses
    );
}

#[test]
fn mosaic_system_facade_matches_dual_sim() {
    // The core facade must report the same counts as driving DualSim
    // directly with the same config and workload.
    let config = MosaicConfig::builder()
        .tlb_entries(128)
        .tlb_associativity(Associativity::Ways(8))
        .arity(8)
        .kernel(None)
        .seed(11)
        .build();
    let make = || {
        Gups::new(
            GupsConfig {
                table_bytes: 1 << 21,
                updates: 30_000,
            },
            2,
        )
    };
    let report = MosaicSystem::new(&config).run(&mut make());

    let mut w = make();
    let meta = w.meta();
    let mut sim = DualSim::new(
        128,
        &[Associativity::Ways(8)],
        &[Arity::new(8)],
        meta.footprint_bytes.div_ceil(PAGE_SIZE) + 16,
        None,
        11,
    );
    w.run(&mut |a| sim.access_batch(&[a]));
    assert_eq!(report.vanilla, stats_of(&sim, Associativity::Ways(8), None));
    assert_eq!(report.mosaic, stats_of(&sim, Associativity::Ways(8), Some(8)));
}
