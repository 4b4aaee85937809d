//! A page-walk cache (MMU cache): the TLB-miss-penalty reducer the paper
//! situates Mosaic against (§5.4).
//!
//! Mosaic attacks the TLB *hit rate*; MMU caches attack the *miss cost*
//! by caching upper-level page-table nodes so a walk skips straight to
//! the lowest cached level (as in Barr et al.'s translation caching and
//! the paper's §5.4 discussion). The two compose: a mosaic TLB miss still
//! walks a radix tree, and a walk cache shortens that walk. This model
//! quantifies walk-memory-access savings for either page-table flavour.

use crate::pagetable::RadixTable;
use crate::tlb::{Associativity, SetAssocCache, TlbConfig};

/// A translation cache over upper page-table levels.
///
/// Entries are `(level, index-prefix)` pairs: holding one means the walk
/// already knows the node at `level` for every index sharing that prefix,
/// so only levels below it must be fetched from memory.
///
/// # Example
///
/// ```
/// use mosaic_mmu::{RadixTable, WalkCache};
///
/// let mut pt: RadixTable<u64> = RadixTable::x86_vanilla(); // 4 levels
/// pt.insert(0x1234, 7);
/// let mut wc = WalkCache::new(16);
/// // Cold: all 4 levels fetched. Warm: upper 3 are cached, 1 fetch.
/// assert_eq!(wc.walk(&pt, 0x1234).1, 4);
/// assert_eq!(wc.walk(&pt, 0x1234).1, 1);
/// ```
#[derive(Debug, Clone)]
pub struct WalkCache {
    /// Cached upper-level nodes, `(level, prefix)` tags in one fully
    /// associative LRU set.
    entries: SetAssocCache<(u32, u64), ()>,
    hits: u64,
    misses: u64,
    obs_hits: mosaic_obs::Counter,
    obs_misses: mosaic_obs::Counter,
    obs_fetches: mosaic_obs::Histogram,
}

impl WalkCache {
    /// Creates a walk cache holding up to `capacity` node entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            entries: SetAssocCache::new(TlbConfig::new(capacity, Associativity::Full)),
            hits: 0,
            misses: 0,
            obs_hits: mosaic_obs::Counter::noop(),
            obs_misses: mosaic_obs::Counter::noop(),
            obs_fetches: mosaic_obs::Histogram::noop(),
        }
    }

    /// Exports this cache's counters as `walkcache.<label>.{hits,misses}`
    /// and the per-walk fetch count as histogram
    /// `walkcache.<label>.fetches`. A no-op when `obs` is disabled.
    pub fn set_obs(&mut self, obs: &mosaic_obs::ObsHandle, label: &str) {
        self.obs_hits = obs.counter(&format!("walkcache.{label}.hits"));
        self.obs_misses = obs.counter(&format!("walkcache.{label}.misses"));
        self.obs_fetches = obs.histogram(&format!("walkcache.{label}.fetches"));
    }

    /// Cached-entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entry lookups that hit.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Entry lookups that missed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    fn prefix(table_bits: u32, bits_per_level: u32, index: u64, level: u32) -> u64 {
        // Bits of `index` consumed by levels 0..=level.
        let levels = table_bits.div_ceil(bits_per_level);
        let below = (levels - 1 - level) * bits_per_level;
        index >> below
    }

    /// Marks `key` most recently used, caching it (and evicting the
    /// least recently used entry when full) if absent.
    fn touch(&mut self, key: (u32, u64)) {
        if self.entries.lookup(0, key).is_none() {
            self.entries.insert(0, key, ());
        }
    }

    /// Walks `table` for `index` through the cache, returning the value
    /// and the number of page-table node fetches actually issued.
    ///
    /// The deepest cached non-leaf level is skipped to directly; all
    /// levels below it (including the leaf) are fetched and the non-leaf
    /// ones inserted into the cache. Walks of unmapped indices cost
    /// whatever prefix of the tree exists, exactly like the raw walker.
    pub fn walk<'a, V>(&mut self, table: &'a RadixTable<V>, index: u64) -> (Option<&'a V>, u32) {
        let levels = table.levels();
        let bits = table.index_bits().div_ceil(levels); // approx per-level width
        // Find the deepest cached upper level (leaf level is never cached;
        // its payload lives in the TLB, not the walk cache).
        let mut start = 0;
        for level in (0..levels.saturating_sub(1)).rev() {
            let key = (level, Self::prefix(table.index_bits(), bits, index, level));
            if self.entries.lookup(0, key).is_some() {
                self.hits += 1;
                self.obs_hits.inc();
                start = level + 1;
                break;
            }
            self.misses += 1;
            self.obs_misses.inc();
        }
        // The raw walk tells us the value and how deep the tree goes.
        let raw = table.walk(index);
        let reached = raw.levels_touched; // 1..=levels
        let fetches = reached.saturating_sub(start);
        self.obs_fetches.record(u64::from(fetches));
        // Cache every upper-level node the walk traversed.
        for level in 0..reached.min(levels - 1) {
            let key = (level, Self::prefix(table.index_bits(), bits, index, level));
            self.touch(key);
        }
        (raw.value, fetches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_with(indices: &[u64]) -> RadixTable<u64> {
        let mut t = RadixTable::new(36, 9);
        for &i in indices {
            t.insert(i, i);
        }
        t
    }

    #[test]
    fn warm_walk_fetches_only_the_leaf() {
        let t = table_with(&[100]);
        let mut wc = WalkCache::new(8);
        let (v, cold) = wc.walk(&t, 100);
        assert_eq!(v, Some(&100));
        assert_eq!(cold, 4);
        let (_, warm) = wc.walk(&t, 100);
        assert_eq!(warm, 1, "upper three levels cached");
    }

    #[test]
    fn sibling_indices_share_upper_levels() {
        // 100 and 101 share every level except within the same leaf.
        let t = table_with(&[100, 101]);
        let mut wc = WalkCache::new(8);
        wc.walk(&t, 100);
        let (_, fetches) = wc.walk(&t, 101);
        assert_eq!(fetches, 1, "siblings reuse the cached path");
    }

    #[test]
    fn distant_indices_share_nothing_but_the_root() {
        let a = 0u64;
        let b = 1 << 35; // different top-level subtree
        let t = table_with(&[a, b]);
        let mut wc = WalkCache::new(8);
        wc.walk(&t, a);
        let (_, fetches) = wc.walk(&t, b);
        // Cached entries are keyed by consumed index bits, so even the
        // top-level entry differs: the full walk repeats.
        assert_eq!(fetches, 4);
    }

    #[test]
    fn capacity_eviction_is_lru() {
        let spread: Vec<u64> = (0..8).map(|i| i << 27).collect(); // distinct L2 subtrees
        let t = table_with(&spread);
        let mut wc = WalkCache::new(4);
        for &i in &spread {
            wc.walk(&t, i);
        }
        assert!(wc.len() <= 4);
        // The most recent path is still warm.
        let (_, fetches) = wc.walk(&t, spread[7]);
        assert!(fetches <= 2, "recent path evicted too eagerly: {fetches}");
    }

    #[test]
    fn unmapped_walks_are_counted_correctly() {
        let t = table_with(&[0]);
        let mut wc = WalkCache::new(8);
        // Unmapped sibling: full-depth walk, leaf absent.
        let (v, fetches) = wc.walk(&t, 1);
        assert_eq!(v, None);
        assert_eq!(fetches, 4);
        // Unmapped distant subtree: stops at the root.
        let (v2, f2) = wc.walk(&t, 1 << 35);
        assert_eq!(v2, None);
        assert!(f2 <= 1);
    }

    #[test]
    fn hit_and_miss_counters_advance() {
        let t = table_with(&[5]);
        let mut wc = WalkCache::new(8);
        wc.walk(&t, 5);
        let misses = wc.misses();
        wc.walk(&t, 5);
        assert!(wc.hits() > 0);
        assert_eq!(wc.misses(), misses, "warm walk must not miss");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        WalkCache::new(0);
    }

    #[test]
    fn mosaic_depth_tables_benefit_too() {
        // A 3-level mosaic table (30-bit MVPN space): warm walks cost 1.
        let mut t: RadixTable<u8> = RadixTable::new(30, 10);
        t.insert(42, 1);
        let mut wc = WalkCache::new(8);
        assert_eq!(wc.walk(&t, 42).1, 3);
        assert_eq!(wc.walk(&t, 42).1, 1);
    }
}
