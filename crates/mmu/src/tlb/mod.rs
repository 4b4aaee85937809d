//! TLB models: a generic set-associative cache instantiated for the
//! vanilla (VPN → PFN) and mosaic (MVPN → ToC) designs.
//!
//! Geometry follows Table 1a of the paper: 1024 entries, associativity
//! swept from direct-mapped to fully associative, unified across 4 KiB and
//! 2 MiB pages for the vanilla TLB. Replacement is true LRU within a set;
//! the mosaic TLB "manages its own space using LRU to evict TLB entries for
//! an entire mosaic page" (§3.1).

mod attrib;
mod cache;
mod coalesce;
mod mosaic;
mod obs;
mod stats;
mod vanilla;

pub use attrib::{ClassPass, ClassTally, MissClass, MissClassifier};
pub use cache::{Associativity, SetAssocCache, TlbConfig};
pub use coalesce::{CoalescedTlb, ColtLookup};
pub use mosaic::{MosaicLookup, MosaicTlb};
pub use obs::TlbObs;
pub use stats::TlbStats;
pub use vanilla::{VanillaLookup, VanillaTlb};
