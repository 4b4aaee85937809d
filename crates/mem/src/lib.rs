//! Physical-memory model for the Mosaic Pages reproduction.
//!
//! This crate is the OS half of Mosaic (paper §2.2–§2.4, §3.2): physical
//! memory structured as an Iceberg hash table of page frames, the
//! compressed-physical-frame-number (CPFN) encoding, the constrained frame
//! allocator, and the **Horizon LRU** swapping algorithm with ghost pages.
//! It also implements the *baseline*: a fully-associative, Linux-like
//! memory manager with watermark-triggered LRU reclaim, which Tables 3 and
//! 4 of the paper compare against.
//!
//! # Architecture
//!
//! * [`addr`] — page-granularity address types ([`Vpn`], [`Pfn`], [`Asid`],
//!   [`PageKey`]) shared across the workspace;
//! * [`layout`] — the bucket↔frame mapping (bucket `b` owns frames
//!   `b*64 .. b*64+64`, front yard first);
//! * [`cpfn`] — bit-exact CPFN encode/decode per §3.1;
//! * [`frame`] — the frame table (per-frame residency, access times, dirty
//!   bits) with ghost-aware occupancy queries;
//! * [`lru`] — [`FrameLru`](lru::FrameLru), the one exact-LRU structure
//!   the managers keep: intrusive lists over frame numbers (O(1) per
//!   hit), one global list for reclaim and one per tenant for quotas;
//! * [`quota`] — per-tenant working-set quotas and their accounting;
//! * [`manager`] — the [`MemoryManager`] trait the
//!   simulator drives;
//! * [`paging`] — [`PagingCore`], the one implementation of that trait:
//!   residency, swap, the hit / fault / swap-in path, eviction
//!   accounting, quotas, faults and obs, with placement and victim
//!   choice from a [`Policy`](paging::Policy);
//! * [`mosaic`] — the Mosaic policy (Iceberg allocation + Horizon LRU);
//! * [`linux`] — the unconstrained exact-LRU baseline (free list +
//!   watermark reclaim);
//! * [`clock`] — a stock-Linux-faithful two-list (active/inactive)
//!   reclaim baseline with referenced bits;
//! * [`policy`] — the §2.4 eviction-policy design space for ablation.
//!
//! # Example
//!
//! ```
//! use mosaic_mem::prelude::*;
//!
//! let layout = MemoryLayout::new(IcebergConfig::paper_default(16));
//! let mut mm = MosaicMemory::new(layout, 42);
//! let key = PageKey::new(Asid::new(1), Vpn::new(0x1000));
//! let outcome = mm.access(key, AccessKind::Store, 1);
//! assert!(outcome.faulted());
//! assert!(mm.resident_pfn(key).is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Production code returns typed errors; .unwrap() is for tests only.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod addr;
pub mod clock;
pub mod cpfn;
pub mod error;
pub mod fault;
pub mod frame;
pub mod invariants;
pub mod layout;
pub mod linux;
pub mod lru;
pub mod manager;
pub mod mosaic;
pub mod obs;
pub mod paging;
pub mod policy;
pub mod quota;
pub mod scanner;
pub mod shadow;
pub mod sharing;
pub mod stats;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::addr::{Asid, PageKey, Pfn, PhysAddr, VirtAddr, Vpn, PAGE_SHIFT, PAGE_SIZE};
    pub use crate::cpfn::{Cpfn, CpfnCodec};
    pub use crate::error::{MosaicError, MosaicResult};
    pub use crate::fault::{FaultInjector, FaultPlan};
    pub use crate::layout::MemoryLayout;
    pub use crate::clock::ClockMemory;
    pub use crate::linux::LinuxMemory;
    pub use crate::manager::{AccessKind, AccessOutcome, MemoryManager};
    pub use crate::mosaic::MosaicMemory;
    pub use crate::obs::MemObs;
    pub use crate::policy::MosaicPolicy;
    pub use crate::quota::{QuotaStats, QuotaTable, TenantQuota};
    pub use crate::stats::{PagingStats, ResilienceStats};
    pub use mosaic_iceberg::IcebergConfig;
}

pub use addr::{Asid, PageKey, Pfn, PhysAddr, VirtAddr, Vpn, PAGE_SHIFT, PAGE_SIZE};
pub use mosaic_iceberg::IcebergConfig;
pub use cpfn::{Cpfn, CpfnCodec};
pub use error::{MosaicError, MosaicResult};
pub use fault::{FaultInjector, FaultPlan};
pub use layout::MemoryLayout;
pub use clock::ClockMemory;
pub use linux::LinuxMemory;
pub use manager::{AccessKind, AccessOutcome, MemoryManager};
pub use mosaic::MosaicMemory;
pub use obs::MemObs;
pub use paging::PagingCore;
pub use policy::MosaicPolicy;
pub use quota::{QuotaStats, QuotaTable, TenantQuota};
pub use scanner::{AccessScanner, ScannerConfig, ScannerStats};
pub use shadow::ConcurrentShadow;
pub use sharing::SharedMosaicMemory;
pub use stats::{PagingStats, ResilienceStats};
