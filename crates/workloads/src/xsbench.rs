//! XSBench: the macroscopic cross-section lookup kernel of Monte Carlo
//! neutron transport (Figure 6d).
//!
//! Each lookup models one particle history step: pick a material and a
//! particle energy, then for every nuclide in the material binary-search
//! that nuclide's sorted energy grid and gather the two bracketing
//! grid points' cross-section data. The binary-search probes scatter
//! across each nuclide's multi-page grid while the gather phase strides
//! across per-nuclide tables — the access mix that makes XSBench a
//! standard TLB benchmark.

use crate::layout::{ArrayRegion, VirtualLayout};
use crate::trace::{Access, Workload, WorkloadMeta};
use mosaic_hash::SplitMix64;
use std::hint::select_unpredictable;

/// Bytes per energy-grid point: energy + 5 cross sections (XSBench's
/// `NuclideGridPoint`: 6 doubles).
pub const GRIDPOINT_BYTES: u64 = 48;

/// XSBench parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XsBenchConfig {
    /// Number of nuclides (isotopes) in the simulation.
    pub n_nuclides: usize,
    /// Energy grid points per nuclide.
    pub n_gridpoints: u64,
    /// Number of macroscopic cross-section lookups.
    pub n_lookups: u64,
    /// Number of materials.
    pub n_materials: usize,
    /// Maximum nuclides per material (fuel-like materials are largest).
    pub max_nuclides_per_material: usize,
}

impl XsBenchConfig {
    /// Footprint presets; 0 is CI-tiny, 1 the benchmark default (≈37 MiB
    /// of nuclide grids), doubling grid size per step.
    pub fn at_scale(scale: u32) -> Self {
        match scale {
            0 => Self {
                n_nuclides: 16,
                n_gridpoints: 2_048,
                n_lookups: 4_000,
                n_materials: 6,
                max_nuclides_per_material: 8,
            },
            s => Self {
                n_nuclides: 68,
                n_gridpoints: 11_303u64 << (s - 1),
                n_lookups: 100_000,
                n_materials: 12,
                max_nuclides_per_material: 34,
            },
        }
    }
}

/// The XSBench workload.
///
/// # Example
///
/// ```
/// use mosaic_workloads::prelude::*;
///
/// let mut xs = XsBench::new(XsBenchConfig::at_scale(0), 5);
/// let trace = record(&mut xs);
/// assert!(!trace.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct XsBench {
    cfg: XsBenchConfig,
    /// Sorted energy values per nuclide (the data binary search reads).
    grids: Vec<Vec<f64>>,
    /// Virtual placement of each nuclide's grid.
    grid_regions: Vec<ArrayRegion>,
    /// Nuclide lists per material.
    materials: Vec<Vec<usize>>,
    seed: u64,
}

impl XsBench {
    /// Builds the nuclide grids and material compositions (setup phase).
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or if materials would be empty.
    pub fn new(cfg: XsBenchConfig, seed: u64) -> Self {
        assert!(cfg.n_nuclides > 0, "need at least one nuclide");
        assert!(cfg.n_gridpoints > 1, "need at least two grid points");
        assert!(cfg.n_materials > 0, "need at least one material");
        assert!(
            cfg.max_nuclides_per_material > 0,
            "materials cannot be empty"
        );
        let mut rng = SplitMix64::new(seed);
        let mut vl = VirtualLayout::new();

        // Each nuclide gets a sorted random energy grid in (0, 1).
        let mut grids = Vec::with_capacity(cfg.n_nuclides);
        let mut grid_regions = Vec::with_capacity(cfg.n_nuclides);
        for _ in 0..cfg.n_nuclides {
            let mut g: Vec<f64> = (0..cfg.n_gridpoints).map(|_| rng.next_f64()).collect();
            g.sort_by(|a, b| a.partial_cmp(b).expect("energies are finite"));
            grids.push(g);
            grid_regions.push(ArrayRegion::alloc(
                &mut vl,
                "nuclide_grid",
                GRIDPOINT_BYTES,
                cfg.n_gridpoints,
            ));
        }

        // Material compositions: material 0 is fuel-like (largest), the
        // rest draw a smaller random subset.
        let mut materials = Vec::with_capacity(cfg.n_materials);
        for m in 0..cfg.n_materials {
            let count = if m == 0 {
                cfg.max_nuclides_per_material.min(cfg.n_nuclides)
            } else {
                1 + rng.next_index(cfg.max_nuclides_per_material.min(cfg.n_nuclides))
            };
            let mut ids: Vec<usize> = (0..cfg.n_nuclides).collect();
            rng.shuffle(&mut ids);
            ids.truncate(count);
            materials.push(ids);
        }

        Self {
            cfg,
            grids,
            grid_regions,
            materials,
            seed: rng.next_u64(),
        }
    }

    /// Builds grids totalling approximately `target_bytes`, for the
    /// memory-pressure experiments of Tables 3 and 4.
    ///
    /// # Panics
    ///
    /// Panics if `target_bytes` is smaller than a few grid points per
    /// nuclide.
    pub fn with_footprint(target_bytes: u64, n_lookups: u64, seed: u64) -> Self {
        let n_nuclides = 68;
        let n_gridpoints = target_bytes / (GRIDPOINT_BYTES * n_nuclides as u64);
        assert!(n_gridpoints >= 2, "target footprint too small");
        Self::new(
            XsBenchConfig {
                n_nuclides,
                n_gridpoints,
                n_lookups,
                n_materials: 12,
                max_nuclides_per_material: 34,
            },
            seed,
        )
    }

    /// The configured parameters.
    pub fn config(&self) -> &XsBenchConfig {
        &self.cfg
    }

    /// Material compositions (inspection).
    pub fn materials(&self) -> &[Vec<usize>] {
        &self.materials
    }

    /// Binary search for `energy` in nuclide `n`'s grid, emitting one load
    /// per probe; returns the bracketing lower index.
    ///
    /// The probe's outcome is a coin flip to the branch predictor, so
    /// `lo`/`hi` move by selects rather than a branch on it.
    fn grid_search(&self, n: usize, energy: f64, sink: &mut dyn FnMut(Access)) -> u64 {
        let grid = &self.grids[n];
        let region = &self.grid_regions[n];
        let mut lo = 0usize;
        let mut hi = grid.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            sink(Access::load(region.at(mid as u64)));
            let below = grid[mid] < energy;
            lo = select_unpredictable(below, mid + 1, lo);
            hi = select_unpredictable(below, hi, mid);
        }
        (lo.saturating_sub(1)) as u64
    }
}

impl Workload for XsBench {
    fn meta(&self) -> WorkloadMeta {
        let footprint: u64 = self.grid_regions.iter().map(ArrayRegion::bytes).sum();
        let mean_mat: f64 = self.materials.iter().map(|m| m.len() as f64).sum::<f64>()
            / self.materials.len() as f64;
        let init_pages: u64 = self.grid_regions.iter().map(ArrayRegion::pages).sum();
        let per_nuclide = (self.cfg.n_gridpoints as f64).log2().ceil() + 2.0;
        let _ = init_pages;
        WorkloadMeta {
            name: "XSBench",
            description: "HPC benchmark representing the key computational kernel of Monte Carlo neutron transport",
            footprint_bytes: footprint,
            approx_accesses: (self.cfg.n_lookups as f64 * mean_mat * per_nuclide) as u64
                + self.grid_regions.iter().map(ArrayRegion::pages).sum::<u64>(),
        }
    }

    fn run(&mut self, sink: &mut dyn FnMut(Access)) {
        // Grid initialization (dirty every page), then the lookup loop.
        for r in &self.grid_regions {
            r.init_stores(sink);
        }
        let mut rng = SplitMix64::new(self.seed);
        for _ in 0..self.cfg.n_lookups {
            let mat = &self.materials[rng.next_index(self.materials.len())];
            let energy = rng.next_f64();
            for &n in mat {
                let idx = self.grid_search(n, energy, sink);
                // Gather the two bracketing grid points' XS data.
                sink(Access::load(self.grid_regions[n].at(idx)));
                let hi = (idx + 1).min(self.cfg.n_gridpoints - 1);
                sink(Access::load(self.grid_regions[n].at(hi)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{record, TraceStats};

    fn small() -> XsBench {
        XsBench::new(XsBenchConfig::at_scale(0), 11)
    }

    #[test]
    fn grids_are_sorted() {
        let xs = small();
        for g in &xs.grids {
            assert!(g.windows(2).all(|w| w[0] <= w[1]));
            assert_eq!(g.len() as u64, xs.cfg.n_gridpoints);
        }
    }

    #[test]
    fn materials_are_valid_subsets() {
        let xs = small();
        assert_eq!(xs.materials.len(), xs.cfg.n_materials);
        for m in xs.materials() {
            assert!(!m.is_empty());
            assert!(m.len() <= xs.cfg.max_nuclides_per_material);
            let set: std::collections::HashSet<_> = m.iter().collect();
            assert_eq!(set.len(), m.len(), "duplicate nuclide in material");
            assert!(m.iter().all(|&n| n < xs.cfg.n_nuclides));
        }
        // Material 0 is the fuel-like largest.
        assert_eq!(xs.materials[0].len(), xs.cfg.max_nuclides_per_material);
    }

    #[test]
    fn grid_search_finds_bracketing_index() {
        let xs = small();
        let g = &xs.grids[0];
        for probe in [0.1, 0.5, 0.9] {
            let idx = xs.grid_search(0, probe, &mut |_| {}) as usize;
            if idx + 1 < g.len() {
                assert!(g[idx] <= probe || idx == 0, "lower bound wrong");
            }
        }
    }

    #[test]
    fn search_cost_is_logarithmic() {
        let xs = small();
        let mut probes = 0u64;
        xs.grid_search(0, 0.5, &mut |_| probes += 1);
        let log = (xs.cfg.n_gridpoints as f64).log2().ceil() as u64;
        assert!(probes <= log + 1, "probes {probes} vs log {log}");
        assert!(probes >= log - 1);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = record(&mut small());
        let b = record(&mut small());
        assert_eq!(a, b);
    }

    #[test]
    fn accesses_stay_in_grid_regions() {
        let mut xs = small();
        let regions: Vec<(u64, u64)> = xs
            .grid_regions
            .iter()
            .map(|r| (r.base().0, r.bytes()))
            .collect();
        for a in record(&mut xs) {
            assert!(
                regions
                    .iter()
                    .any(|&(b, len)| a.addr.0 >= b && a.addr.0 < b + len),
                "stray access {:#x}",
                a.addr.0
            );
        }
    }

    #[test]
    fn touches_many_pages() {
        let mut xs = small();
        let s = TraceStats::of(&record(&mut xs));
        // 16 nuclides x 512 points x 48 B = 6 pages per nuclide.
        assert!(s.distinct_pages > 50, "{} pages", s.distinct_pages);
        // Only the init scan writes; the lookup kernel is read-only.
        let init_pages: u64 = xs.grid_regions.iter().map(ArrayRegion::pages).sum();
        assert_eq!(s.stores, init_pages);
    }

    #[test]
    #[should_panic(expected = "at least two grid points")]
    fn degenerate_grid_panics() {
        XsBench::new(
            XsBenchConfig {
                n_nuclides: 1,
                n_gridpoints: 1,
                n_lookups: 1,
                n_materials: 1,
                max_nuclides_per_material: 1,
            },
            0,
        );
    }
}

#[cfg(test)]
mod search_props {
    use super::*;
    use proptest::prelude::*;

    /// The textbook branchy lower-bound search, emitting the same loads.
    fn branchy(xs: &XsBench, energy: f64, sink: &mut dyn FnMut(Access)) -> u64 {
        let grid = &xs.grids[0];
        let (mut lo, mut hi) = (0usize, grid.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            sink(Access::load(xs.grid_regions[0].at(mid as u64)));
            if grid[mid] < energy {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (lo.saturating_sub(1)) as u64
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On sorted grids with repeated energies, probed below, above,
        /// between and at grid values, `grid_search` emits the branchy
        /// search's probe sequence and returns its index.
        #[test]
        fn branch_free_search_matches_branchy(
            mut points in prop::collection::vec(0u8..16, 2..300),
            probes in prop::collection::vec(0u8..40, 1..24),
        ) {
            points.sort_unstable();
            let mut xs = XsBench::new(
                XsBenchConfig {
                    n_nuclides: 1,
                    n_gridpoints: points.len() as u64,
                    n_lookups: 1,
                    n_materials: 1,
                    max_nuclides_per_material: 1,
                },
                0,
            );
            xs.grids[0] = points.iter().map(|&p| f64::from(p)).collect();
            for p in probes {
                // -1.0 to 18.5 in halves: grid values are 0 to 15.
                let energy = f64::from(p) / 2.0 - 1.0;
                let (mut got, mut want) = (Vec::new(), Vec::new());
                let idx = xs.grid_search(0, energy, &mut |a| got.push(a));
                let expect = branchy(&xs, energy, &mut |a| want.push(a));
                prop_assert_eq!(idx, expect);
                prop_assert_eq!(got, want);
            }
        }
    }
}

#[cfg(test)]
mod footprint_tests {
    use super::*;
    use crate::trace::Workload;

    #[test]
    fn with_footprint_lands_near_target() {
        for target in [1u64 << 20, 16 << 20] {
            let xs = XsBench::with_footprint(target, 10, 1);
            let got = xs.meta().footprint_bytes;
            let ratio = got as f64 / target as f64;
            assert!((0.95..1.05).contains(&ratio), "target {target}: got {got}");
        }
    }
}
