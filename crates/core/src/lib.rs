//! **mosaic-core** — the public face of the Mosaic Pages reproduction.
//!
//! Mosaic pages (Gosakan et al., ASPLOS 2023) increase TLB reach by
//! compressing multiple discrete translations into one TLB entry: each
//! virtual page is hash-constrained to `h = 104` candidate frames (Iceberg
//! hashing), so a translation fits in a 7-bit CPFN and a TLB entry holds a
//! whole *mosaic page* of them — virtual contiguity without physical
//! contiguity, hence no defragmentation.
//!
//! This crate re-exports the whole workspace and adds a turn-key API:
//! [`MosaicConfig`] (a builder over every knob the paper sweeps) and
//! [`MosaicSystem`] (construct, run a workload, read a [`RunReport`]).
//!
//! # Quickstart
//!
//! ```
//! use mosaic_core::prelude::*;
//!
//! // A small system: 64-entry 8-way TLB, arity-4 mosaic pages.
//! let config = MosaicConfig::builder()
//!     .tlb_entries(64)
//!     .tlb_associativity(Associativity::Ways(8))
//!     .arity(4)
//!     .build();
//! let mut system = MosaicSystem::new(&config);
//!
//! let mut workload = Gups::new(GupsConfig { table_bytes: 1 << 20, updates: 10_000 }, 7);
//! let report = system.run(&mut workload);
//!
//! // Mosaic needs no more misses than vanilla on this footprint.
//! assert!(report.mosaic.misses <= report.vanilla.misses);
//! ```
//!
//! # Crate map
//!
//! | Crate | Role |
//! |-------|------|
//! | [`hash`] | tabulation hashing (hardware path), XXH64 (OS path) |
//! | [`iceberg`] | stable low-associativity high-load hash tables |
//! | [`mem`] | frame allocation, CPFNs, Horizon LRU, Linux baseline |
//! | [`mmu`] | vanilla + mosaic TLBs, ToCs, radix page tables |
//! | [`workloads`] | Graph500, BTree, GUPS, XSBench trace generators |
//! | [`sim`] | dual-TLB + memory-pressure experiment drivers |
//! | [`tenants`] | multi-tenant address spaces, COW fork, fairness |
//! | [`hw`] | FPGA / 28 nm feasibility models (Table 5) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mosaic_hash as hash;
pub use mosaic_hw as hw;
pub use mosaic_iceberg as iceberg;
pub use mosaic_mem as mem;
pub use mosaic_mmu as mmu;
pub use mosaic_sim as sim;
pub use mosaic_tenants as tenants;
pub use mosaic_workloads as workloads;

use mosaic_mem::PAGE_SIZE;
use mosaic_mmu::{Arity, Associativity, TlbStats};
use mosaic_sim::dual::{DualSim, KernelConfig};
use mosaic_workloads::Workload;

/// Commonly used items from across the workspace.
pub mod prelude {
    pub use crate::{MosaicConfig, MosaicConfigBuilder, MosaicSystem, RunReport};
    pub use mosaic_hash::prelude::*;
    pub use mosaic_iceberg::{IcebergConfig, IcebergTable};
    pub use mosaic_mem::prelude::*;
    pub use mosaic_mmu::prelude::*;
    pub use mosaic_sim::dual::KernelConfig;
    pub use mosaic_workloads::prelude::*;
}

/// Every knob of a mosaic system the paper's evaluation sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct MosaicConfig {
    /// Mosaic arity (base pages per TLB entry).
    pub arity: Arity,
    /// TLB entries.
    pub tlb_entries: usize,
    /// TLB associativity.
    pub tlb_associativity: Associativity,
    /// Kernel-access model (vanilla maps the kernel with huge pages).
    pub kernel: Option<KernelConfig>,
    /// Deterministic seed for hashing and injection.
    pub seed: u64,
}

impl MosaicConfig {
    /// Starts a builder at the paper defaults (1024-entry 8-way TLB,
    /// arity 4, kernel model on).
    pub fn builder() -> MosaicConfigBuilder {
        MosaicConfigBuilder::default()
    }
}

impl Default for MosaicConfig {
    fn default() -> Self {
        MosaicConfigBuilder::default().build()
    }
}

/// Non-consuming builder for [`MosaicConfig`].
#[derive(Debug, Clone)]
pub struct MosaicConfigBuilder {
    config: MosaicConfig,
}

impl Default for MosaicConfigBuilder {
    fn default() -> Self {
        Self {
            config: MosaicConfig {
                arity: Arity::DEFAULT,
                tlb_entries: 1024,
                tlb_associativity: Associativity::Ways(8),
                kernel: Some(KernelConfig::default()),
                seed: 0x5EED,
            },
        }
    }
}

impl MosaicConfigBuilder {
    /// Sets the mosaic arity.
    ///
    /// # Panics
    ///
    /// Panics unless `arity` is a power of two in `1..=256`.
    pub fn arity(&mut self, arity: usize) -> &mut Self {
        self.config.arity = Arity::new(arity);
        self
    }

    /// Sets the TLB entry count.
    pub fn tlb_entries(&mut self, entries: usize) -> &mut Self {
        self.config.tlb_entries = entries;
        self
    }

    /// Sets the TLB associativity.
    pub fn tlb_associativity(&mut self, assoc: Associativity) -> &mut Self {
        self.config.tlb_associativity = assoc;
        self
    }

    /// Sets (or disables, with `None`) the kernel-access model.
    pub fn kernel(&mut self, kernel: Option<KernelConfig>) -> &mut Self {
        self.config.kernel = kernel;
        self
    }

    /// Sets the seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.config.seed = seed;
        self
    }

    /// Produces the configuration.
    pub fn build(&self) -> MosaicConfig {
        self.config.clone()
    }
}

/// The outcome of running a workload through a [`MosaicSystem`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Vanilla-TLB counters for the run.
    pub vanilla: TlbStats,
    /// Mosaic-TLB counters for the run.
    pub mosaic: TlbStats,
    /// Workload accesses driven.
    pub accesses: u64,
}

impl RunReport {
    /// The paper's headline number: percent reduction in TLB misses
    /// (positive = mosaic wins).
    pub fn miss_reduction_percent(&self) -> f64 {
        if self.vanilla.misses == 0 {
            0.0
        } else {
            (1.0 - self.mosaic.misses as f64 / self.vanilla.misses as f64) * 100.0
        }
    }
}

/// A ready-to-run mosaic system: one vanilla and one mosaic TLB over a
/// shared demand-paged OS model (the paper's §3.1 methodology).
#[derive(Debug)]
pub struct MosaicSystem {
    config: MosaicConfig,
}

impl MosaicSystem {
    /// Creates a system from a configuration.
    pub fn new(config: &MosaicConfig) -> Self {
        Self {
            config: config.clone(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MosaicConfig {
        &self.config
    }

    /// Runs a workload to completion and reports both TLBs' counters.
    pub fn run(&mut self, workload: &mut dyn Workload) -> RunReport {
        let meta = workload.meta();
        let footprint_pages = meta.footprint_bytes.div_ceil(PAGE_SIZE) + 16;
        let mut sim = DualSim::new(
            self.config.tlb_entries,
            &[self.config.tlb_associativity],
            &[self.config.arity],
            footprint_pages,
            self.config.kernel,
            self.config.seed,
        );
        workload.run_chunks(mosaic_sim::fig6::DEFAULT_BATCH, &mut |chunk| {
            sim.access_batch(chunk)
        });
        let results = sim.results();
        let vanilla = results
            .iter()
            .find(|(_, k, _)| k.is_none())
            .expect("vanilla instance exists")
            .2;
        let mosaic = results
            .iter()
            .find(|(_, k, _)| k.is_some())
            .expect("mosaic instance exists")
            .2;
        RunReport {
            vanilla,
            mosaic,
            accesses: sim.user_accesses(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_workloads::{Gups, GupsConfig};

    #[test]
    fn builder_defaults_match_paper() {
        let c = MosaicConfig::default();
        assert_eq!(c.arity.get(), 4);
        assert_eq!(c.tlb_entries, 1024);
        assert_eq!(c.tlb_associativity, Associativity::Ways(8));
        assert!(c.kernel.is_some());
    }

    #[test]
    fn builder_overrides() {
        let c = MosaicConfig::builder()
            .arity(16)
            .tlb_entries(128)
            .tlb_associativity(Associativity::Full)
            .kernel(None)
            .seed(9)
            .build();
        assert_eq!(c.arity.get(), 16);
        assert_eq!(c.tlb_entries, 128);
        assert_eq!(c.tlb_associativity, Associativity::Full);
        assert_eq!(c.kernel, None);
        assert_eq!(c.seed, 9);
    }

    #[test]
    fn run_produces_consistent_report() {
        let config = MosaicConfig::builder()
            .tlb_entries(64)
            .kernel(None)
            .build();
        let mut sys = MosaicSystem::new(&config);
        let mut w = Gups::new(
            GupsConfig {
                table_bytes: 1 << 20,
                updates: 20_000,
            },
            3,
        );
        let report = sys.run(&mut w);
        assert_eq!(report.vanilla.accesses, report.mosaic.accesses);
        assert!(report.accesses > 0);
        assert!(report.miss_reduction_percent() <= 100.0);
    }

    #[test]
    fn arity_one_equals_vanilla_misses() {
        // With no kernel model and arity 1, the mosaic TLB caches exactly
        // one page per entry, indexed identically — miss counts match.
        let config = MosaicConfig::builder()
            .tlb_entries(64)
            .arity(1)
            .kernel(None)
            .build();
        let mut sys = MosaicSystem::new(&config);
        let mut w = Gups::new(
            GupsConfig {
                table_bytes: 1 << 21,
                updates: 30_000,
            },
            4,
        );
        let report = sys.run(&mut w);
        assert_eq!(report.vanilla.misses, report.mosaic.misses);
    }
}
