//! Deterministic parallel cell execution for the sweep drivers.
//!
//! A *cell* is one independent unit of a sweep grid — one contiguous
//! part of Figure 6's associativities, one (workload × ratio) pair of
//! Table 4, one fragmentation level, one hash-function count of
//! Table 5. Cells share only immutable inputs (such as a recorded
//! [`TraceBuffer`](crate::trace_buffer::TraceBuffer)), so they can fan
//! out across threads freely.
//!
//! [`run_cells`] is the one execution primitive: it maps a closure over
//! the cells on a rayon pool of `jobs` threads, gives every cell its own
//! observability child registry, and returns the results — and merges
//! the children into the parent — **in input order**, so result tables
//! and exported streams are assembled identically at any `--jobs`
//! value. Determinism therefore reduces to each cell being a pure
//! function of its inputs — which [`derive_seed`] guarantees for cells
//! that need their own randomness, by deriving a per-cell seed from
//! (base seed, cell index) instead of from any shared mutable RNG.

use mosaic_hash::SplitMix64;
use mosaic_obs::ObsHandle;
use rayon::prelude::*;

/// Derives cell `index`'s private seed from a sweep-wide base seed.
///
/// The derivation is a [`SplitMix64`] output whose state seeds are
/// spread by the golden-ratio increment, so neighboring cell indices
/// get statistically unrelated streams while remaining a pure function
/// of `(base, index)` — the same cell gets the same seed no matter
/// which thread runs it or how many threads exist.
pub fn derive_seed(base: u64, index: u64) -> u64 {
    SplitMix64::new(base.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))).next_u64()
}

/// Runs `f` over `cells` on `jobs` threads, returning results in input
/// order.
///
/// Each cell gets `obs.child()` (a no-op handle when `obs` is disabled)
/// as its third argument; after the join every child is merged into
/// `obs` in input order, so the parent's stream is independent of
/// thread scheduling. Callers without observability pass
/// [`ObsHandle::noop`].
///
/// `jobs == 1` (or a single cell) short-circuits to a plain in-order
/// serial loop on the calling thread — no pool, no send bounds
/// exercised. `jobs == 0` uses the machine's available parallelism.
pub fn run_cells<T, R, F>(jobs: usize, obs: &ObsHandle, cells: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T, &ObsHandle) -> R + Sync,
{
    let cells: Vec<_> = cells
        .into_iter()
        .enumerate()
        .map(|(i, c)| (i, c, obs.child()))
        .collect();
    let run = |(i, c, child): (usize, T, ObsHandle)| (f(i, c, &child), child);
    let serial = |cells: Vec<(usize, T, ObsHandle)>| cells.into_iter().map(run).collect();
    let outcomes: Vec<(R, ObsHandle)> = if jobs == 1 || cells.len() <= 1 {
        serial(cells)
    } else {
        match rayon::ThreadPoolBuilder::new().num_threads(jobs).build() {
            Ok(pool) => pool.install(|| cells.into_par_iter().map(run).collect()),
            // Pool construction cannot fail in the vendored shim; fall
            // back to serial execution rather than aborting the sweep if
            // it ever does with a real rayon.
            Err(_) => serial(cells),
        }
    };
    outcomes
        .into_iter()
        .map(|(r, child)| {
            obs.merge_from(&child);
            r
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order_at_any_job_count() {
        let cells: Vec<u64> = (0..37).collect();
        let expect: Vec<(usize, u64)> = cells.iter().map(|&c| (c as usize, c * 3)).collect();
        for jobs in [1, 2, 8] {
            let got = run_cells(jobs, &ObsHandle::noop(), cells.clone(), |i, c, _| {
                (i, c * 3)
            });
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn derive_seed_is_pure_and_spreads_indices() {
        assert_eq!(derive_seed(42, 3), derive_seed(42, 3));
        let seeds: std::collections::HashSet<u64> =
            (0..100).map(|i| derive_seed(0xF166, i)).collect();
        assert_eq!(seeds.len(), 100, "collisions across cell indices");
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0), "base seed matters");
    }

    #[test]
    fn zero_jobs_uses_machine_default_and_stays_ordered() {
        let got = run_cells(
            0,
            &ObsHandle::noop(),
            (0..16).collect::<Vec<u64>>(),
            |_, c, _| c + 1,
        );
        assert_eq!(got, (1..17).collect::<Vec<u64>>());
    }

    #[test]
    fn single_cell_runs_on_calling_thread() {
        let here = std::thread::current().id();
        let got = run_cells(8, &ObsHandle::noop(), vec![()], |_, (), _| {
            std::thread::current().id()
        });
        assert_eq!(got, vec![here]);
    }

    #[test]
    fn children_merge_into_the_parent_in_input_order_at_any_job_count() {
        let export = |jobs| {
            let obs = ObsHandle::enabled();
            run_cells(jobs, &obs, (0..6u64).collect(), |i, c, child| {
                assert!(
                    child.is_enabled(),
                    "an enabled parent hands out live children"
                );
                child.event(c, "cell", &[("index", mosaic_obs::Value::from(i as u64))]);
                child.counter("cells").inc();
                child.snapshot(c);
            });
            assert_eq!(obs.counter_value("cells"), 6, "child counters must add up");
            obs.render_jsonl()
        };
        let serial = export(1);
        assert_eq!(serial, export(2));
        assert_eq!(serial, export(4));
        let order: Vec<usize> = (0..6)
            .map(|i| {
                serial
                    .find(&format!("\"index\":{i}"))
                    .unwrap_or_else(|| panic!("cell {i} missing from {serial}"))
            })
            .collect();
        assert!(
            order.windows(2).all(|w| w[0] < w[1]),
            "cells out of input order"
        );
    }

    #[test]
    fn disabled_parent_hands_cells_noop_children() {
        let got = run_cells(2, &ObsHandle::noop(), vec![(); 3], |_, (), child| {
            child.is_enabled()
        });
        assert_eq!(got, vec![false; 3]);
    }
}
