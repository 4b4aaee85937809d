//! Property tests for the batched translation pipeline: for ANY access
//! stream, chunking, and kernel model, [`DualSim::access_batch`] must be
//! observationally identical to the scalar per-access loop. This is the
//! contract every golden-output gate rests on — `--batch` may change
//! wall-clock time, never results.

use mosaic_mem::VirtAddr;
use mosaic_mmu::{Arity, Associativity};
use mosaic_sim::dual::{DualSim, KernelConfig};
use mosaic_workloads::Access;
use proptest::collection::vec;
use proptest::prelude::*;

fn sim(kernel: bool) -> DualSim {
    DualSim::new(
        64,
        &[
            Associativity::Ways(1),
            Associativity::Ways(8),
            Associativity::Full,
        ],
        &[4, 16].map(Arity::new),
        1024,
        kernel.then(KernelConfig::default),
        0xBA7C,
    )
}

/// Loads and stores over a small page pool, so streams revisit pages
/// (TLB hits), touch fresh ones (walks + OS growth), and straddle mosaic
/// ToC boundaries.
fn any_access() -> impl Strategy<Value = Access> {
    (0u64..512, any::<bool>()).prop_map(|(page, store)| {
        let addr = VirtAddr(page * 4096);
        if store {
            Access::store(addr)
        } else {
            Access::load(addr)
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Scalar and batched engines agree on every counter for any stream,
    /// any chunking of that stream, with and without the kernel model.
    #[test]
    fn access_batch_matches_scalar(
        accesses in vec(any_access(), 1..300),
        chunk in 1usize..64,
        kernel in any::<bool>(),
    ) {
        let mut scalar = sim(kernel);
        for &a in &accesses {
            scalar.access(a);
        }

        let mut batched = sim(kernel);
        for c in accesses.chunks(chunk) {
            batched.access_batch(c);
        }

        prop_assert_eq!(scalar.user_accesses(), batched.user_accesses());
        prop_assert_eq!(scalar.results(), batched.results());
        prop_assert_eq!(scalar.os().walk_counts(), batched.os().walk_counts());
        batched.os().verify().expect("batched OS state is structurally sound");
    }

    /// Deferred obs publication is invisible from outside a batch: after
    /// any stream and chunking, the full exported obs state — every
    /// counter, gauge, and histogram, including the walker depth
    /// histograms flushed via `record_n`, and with attribution on the
    /// per-instance 3C tables charged from the shared classification
    /// pass — renders byte-identically to the scalar run's, with and
    /// without kernel injection (whose huge-page first touches can hit,
    /// so an instance skips those positions' classes).
    #[test]
    fn obs_exports_match_scalar(
        accesses in vec(any_access(), 1..200),
        chunk in 1usize..64,
    ) {
        for (kernel, attrib) in [(false, false), (true, false), (false, true), (true, true)] {
            let scalar_obs = mosaic_obs::ObsHandle::enabled();
            scalar_obs.set_attrib(attrib);
            let mut scalar = sim(kernel);
            scalar.set_obs(&scalar_obs);
            for &a in &accesses {
                scalar.access(a);
            }

            let batched_obs = mosaic_obs::ObsHandle::enabled();
            batched_obs.set_attrib(attrib);
            let mut batched = sim(kernel);
            batched.set_obs(&batched_obs);
            for c in accesses.chunks(chunk) {
                batched.access_batch(c);
            }

            scalar_obs.snapshot(accesses.len() as u64);
            batched_obs.snapshot(accesses.len() as u64);
            let jsonl = scalar_obs.render_jsonl();
            prop_assert_eq!(jsonl.contains("\"t\":\"attrib\""), attrib);
            prop_assert_eq!(jsonl, batched_obs.render_jsonl(), "kernel {} attrib {}", kernel, attrib);
        }
    }

    /// Re-chunking is also self-consistent: two different chunkings of
    /// the same stream agree with each other (catches any chunk-boundary
    /// state leak independently of the scalar path).
    #[test]
    fn chunking_is_invisible(
        accesses in vec(any_access(), 1..300),
        chunk_a in 1usize..48,
        chunk_b in 1usize..48,
    ) {
        let mut sim_a = sim(true);
        for c in accesses.chunks(chunk_a) {
            sim_a.access_batch(c);
        }
        let mut sim_b = sim(true);
        for c in accesses.chunks(chunk_b) {
            sim_b.access_batch(c);
        }
        prop_assert_eq!(sim_a.results(), sim_b.results());
        prop_assert_eq!(sim_a.os().walk_counts(), sim_b.os().walk_counts());
    }
}
