//! Hashing primitives for the Mosaic Pages reproduction.
//!
//! Mosaic Pages (Gosakan et al., ASPLOS 2023) constrains every virtual page
//! to a small set of candidate physical frames chosen by hashing. Two hash
//! functions appear in the paper:
//!
//! * **Tabulation hashing** (§3.1, Figure 4) on the hardware critical path:
//!   one 256-entry table per input byte, XOR-reduced, with *probing* to
//!   derive multiple hash outputs from a single set of tables. Implemented
//!   bit-exactly in [`tabulation::TabulationHasher`]; the same datapath is
//!   reused by the `mosaic-hw` crate for the Table 5 area/latency model.
//! * **xxHash (XXH64)** in the Linux prototype allocator (§3.2). Implemented
//!   from scratch in [`xxhash`] and validated against published vectors.
//!
//! The crate also provides [`splitmix::SplitMix64`], the deterministic seed
//! stream used everywhere in the workspace (no global RNG state), the
//! [`family::HashFamily`] abstraction that the Iceberg allocator consumes,
//! and [`fast::FastHasher`], the one fast hasher behind every page- and
//! tag-keyed `HashMap` in the simulator.
//!
//! # Example
//!
//! ```
//! use mosaic_hash::prelude::*;
//!
//! let tab = TabulationHasher::new(8, 7, 0xACE5_5EED);
//! // Seven probed outputs from one set of tables (1 front + 6 backyard).
//! let h0 = tab.hash(0xDEAD_BEEF, 0);
//! let h1 = tab.hash(0xDEAD_BEEF, 1);
//! assert_ne!(h0, h1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Production code returns values or panics with context; bare .unwrap()
// is for tests only.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod family;
pub mod fast;
pub mod splitmix;
pub mod tabulation;
pub mod xxhash;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::family::{HashFamily, TabulationFamily, XxFamily};
    pub use crate::fast::{FastHashBuilder, FastHashMap, FastHashSet, FastHasher};
    pub use crate::splitmix::SplitMix64;
    pub use crate::tabulation::TabulationHasher;
    pub use crate::xxhash::xxh64;
}

pub use family::{HashFamily, TabulationFamily, XxFamily};
pub use fast::{FastHashBuilder, FastHashMap, FastHashSet, FastHasher};
pub use splitmix::SplitMix64;
pub use tabulation::TabulationHasher;
pub use xxhash::xxh64;
