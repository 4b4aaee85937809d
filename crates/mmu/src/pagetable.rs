//! Radix page tables with a walk-cost-counting walker (Figure 5).
//!
//! Mosaic "can use any page-table structure" (§2.1); like the paper's
//! prototype we keep the conventional radix tree and only change the leaf
//! payload: vanilla leaves map VPN → PFN, mosaic leaves map MVPN → ToC.
//! The walker counts the sequential node accesses a hardware walk would
//! issue, the cost a TLB miss pays.

/// A fixed-fanout radix tree over dense integer indices.
///
/// # Example
///
/// ```
/// use mosaic_mmu::RadixTable;
///
/// // A 36-bit index space walked 9 bits per level = 4 levels (x86-style).
/// let mut pt: RadixTable<u64> = RadixTable::new(36, 9);
/// assert_eq!(pt.levels(), 4);
/// pt.insert(0x12345, 99);
/// assert_eq!(pt.get(0x12345), Some(&99));
/// ```
#[derive(Debug, Clone)]
pub struct RadixTable<V> {
    root: Node<V>,
    index_bits: u32,
    bits_per_level: u32,
    levels: u32,
    len: usize,
}

#[derive(Debug, Clone)]
enum Node<V> {
    Internal(Vec<Option<Box<Node<V>>>>),
    Leaf(Vec<Option<V>>),
}

impl<V> Node<V> {
    fn new(level_is_leaf: bool, fanout: usize) -> Self {
        if level_is_leaf {
            Node::Leaf(std::iter::repeat_with(|| None).take(fanout).collect())
        } else {
            Node::Internal(std::iter::repeat_with(|| None).take(fanout).collect())
        }
    }
}

/// The outcome of a radix walk: the value found (if mapped) and how many
/// page-table nodes the walk touched (its memory-access cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Walk<'a, V> {
    /// The leaf value, if the index is mapped.
    pub value: Option<&'a V>,
    /// Nodes visited; a missing subtree terminates the walk early, just as
    /// a non-present directory entry stops a hardware walker.
    pub levels_touched: u32,
}

impl<V> RadixTable<V> {
    /// Creates an empty table covering `index_bits`-wide indices, consumed
    /// `bits_per_level` at a time from the top.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero, `index_bits > 57`, or
    /// `bits_per_level > 12`.
    pub fn new(index_bits: u32, bits_per_level: u32) -> Self {
        assert!(index_bits > 0, "index_bits must be positive");
        assert!(index_bits <= 57, "index_bits too large");
        assert!(
            (1..=12).contains(&bits_per_level),
            "bits_per_level must be in 1..=12"
        );
        let levels = index_bits.div_ceil(bits_per_level);
        Self {
            root: Node::new(levels == 1, 1 << Self::top_bits(index_bits, bits_per_level)),
            index_bits,
            bits_per_level,
            levels,
            len: 0,
        }
    }

    /// Creates the 4-level, 9-bits-per-level table used for vanilla 36-bit
    /// VPNs (x86-64 style).
    pub fn x86_vanilla() -> Self {
        Self::new(36, 9)
    }

    fn top_bits(index_bits: u32, bits_per_level: u32) -> u32 {
        // The root level absorbs the remainder so lower levels are full.
        let rem = index_bits % bits_per_level;
        if rem == 0 {
            bits_per_level
        } else {
            rem
        }
    }

    /// Number of levels a full walk traverses.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Width of the index space in bits.
    pub fn index_bits(&self) -> u32 {
        self.index_bits
    }

    /// Mapped entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn check_index(&self, index: u64) {
        assert!(
            self.index_bits == 64 || index < (1u64 << self.index_bits),
            "index {index:#x} exceeds {} bits",
            self.index_bits
        );
    }

    /// The slice of `index` selecting the child at `level` (0 = root).
    fn slice(&self, index: u64, level: u32) -> usize {
        let below = (self.levels - 1 - level) * self.bits_per_level;
        let width = if level == 0 {
            Self::top_bits(self.index_bits, self.bits_per_level)
        } else {
            self.bits_per_level
        };
        ((index >> below) & ((1 << width) - 1)) as usize
    }

    /// Maps `index -> value`, returning the previous value if present.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds the index space.
    pub fn insert(&mut self, index: u64, value: V) -> Option<V> {
        self.check_index(index);
        let levels = self.levels;
        let bits = self.bits_per_level;
        let mut slices = Vec::with_capacity(levels as usize);
        for level in 0..levels {
            slices.push(self.slice(index, level));
        }
        let mut node = &mut self.root;
        for (depth, &slice) in slices.iter().enumerate() {
            let is_last = depth + 1 == levels as usize;
            match node {
                Node::Leaf(vals) => {
                    debug_assert!(is_last);
                    let old = vals[slice].replace(value);
                    if old.is_none() {
                        self.len += 1;
                    }
                    return old;
                }
                Node::Internal(children) => {
                    let child_is_leaf = depth + 2 == levels as usize;
                    node = children[slice]
                        .get_or_insert_with(|| Box::new(Node::new(child_is_leaf, 1 << bits)));
                }
            }
        }
        unreachable!("walk always terminates at a leaf");
    }

    /// The value mapped at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds the index space.
    pub fn get(&self, index: u64) -> Option<&V> {
        self.walk(index).value
    }

    /// Mutable access to the value mapped at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds the index space.
    pub fn get_mut(&mut self, index: u64) -> Option<&mut V> {
        self.check_index(index);
        let levels = self.levels;
        let mut slices = Vec::with_capacity(levels as usize);
        for level in 0..levels {
            slices.push(self.slice(index, level));
        }
        let mut node = &mut self.root;
        for &slice in &slices {
            match node {
                Node::Leaf(vals) => return vals[slice].as_mut(),
                Node::Internal(children) => match children[slice].as_deref_mut() {
                    Some(child) => node = child,
                    None => return None,
                },
            }
        }
        None
    }

    /// Unmaps `index`, returning the value if it was mapped.
    ///
    /// Interior nodes are retained (like a real page table, which frees
    /// directory pages lazily if at all).
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds the index space.
    pub fn remove(&mut self, index: u64) -> Option<V> {
        self.check_index(index);
        let levels = self.levels;
        let mut slices = Vec::with_capacity(levels as usize);
        for level in 0..levels {
            slices.push(self.slice(index, level));
        }
        let mut node = &mut self.root;
        for &slice in &slices {
            match node {
                Node::Leaf(vals) => {
                    let old = vals[slice].take();
                    if old.is_some() {
                        self.len -= 1;
                    }
                    return old;
                }
                Node::Internal(children) => match children[slice].as_deref_mut() {
                    Some(child) => node = child,
                    None => return None,
                },
            }
        }
        None
    }

    /// Walks the tree, returning the value and the number of nodes touched.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds the index space.
    pub fn walk(&self, index: u64) -> Walk<'_, V> {
        self.check_index(index);
        let mut node = &self.root;
        let mut touched = 0;
        #[allow(clippy::explicit_counter_loop)] // `touched` counts node visits, not iterations alone
        for level in 0..self.levels {
            touched += 1;
            let slice = self.slice(index, level);
            match node {
                Node::Leaf(vals) => {
                    return Walk {
                        value: vals[slice].as_ref(),
                        levels_touched: touched,
                    };
                }
                Node::Internal(children) => match children[slice].as_deref() {
                    Some(child) => node = child,
                    None => {
                        return Walk {
                            value: None,
                            levels_touched: touched,
                        };
                    }
                },
            }
        }
        unreachable!("walk always terminates at a leaf");
    }

    /// Total nodes allocated (root included) — a page-table-size proxy.
    pub fn node_count(&self) -> usize {
        fn count<V>(node: &Node<V>) -> usize {
            match node {
                Node::Leaf(_) => 1,
                Node::Internal(children) => {
                    1 + children
                        .iter()
                        .filter_map(|c| c.as_deref())
                        .map(count)
                        .sum::<usize>()
                }
            }
        }
        count(&self.root)
    }
}

/// A page-table walker: wraps a [`RadixTable`] and counts the memory
/// accesses its walks issue (the TLB-miss penalty driver).
#[derive(Debug, Clone)]
pub struct PageWalker<V> {
    table: RadixTable<V>,
    walks: u64,
    node_accesses: u64,
    obs_walks: mosaic_obs::Counter,
    obs_depth: mosaic_obs::Histogram,
    /// `depth_tally[d]` walks of depth `d` since the last
    /// [`PageWalker::publish_obs`] (or [`PageWalker::set_obs`]).
    depth_tally: Vec<u64>,
}

impl<V> PageWalker<V> {
    /// Creates a walker over an empty table.
    pub fn new(table: RadixTable<V>) -> Self {
        Self {
            table,
            walks: 0,
            node_accesses: 0,
            obs_walks: mosaic_obs::Counter::noop(),
            obs_depth: mosaic_obs::Histogram::noop(),
            depth_tally: Vec::new(),
        }
    }

    /// Exports this walker's counters as `ptw.<label>.walks` and the
    /// per-walk depth distribution as histogram `ptw.<label>.depth`.
    /// Only walks after this call are exported, and only when
    /// [`PageWalker::publish_obs`] pushes them.
    ///
    /// A no-op when `obs` is disabled.
    pub fn set_obs(&mut self, obs: &mosaic_obs::ObsHandle, label: &str) {
        self.obs_walks = obs.counter(&format!("ptw.{label}.walks"));
        self.obs_depth = obs.histogram(&format!("ptw.{label}.depth"));
        self.depth_tally.clear();
    }

    /// Publishes the walks tallied since the last publish: one counter
    /// add plus one histogram add per distinct walk depth. Walks only
    /// tally locally, so exported counters are current after this call
    /// and stale between calls.
    pub fn publish_obs(&mut self) {
        self.obs_walks.add(self.depth_tally.iter().sum());
        for (depth, &n) in self.depth_tally.iter().enumerate() {
            if n > 0 {
                self.obs_depth.record_n(depth as u64, n);
            }
        }
        self.depth_tally.fill(0);
    }

    /// The underlying table (for mapping setup).
    pub fn table(&self) -> &RadixTable<V> {
        &self.table
    }

    /// Mutable access to the underlying table.
    pub fn table_mut(&mut self) -> &mut RadixTable<V> {
        &mut self.table
    }

    /// Performs a counted walk.
    pub fn walk(&mut self, index: u64) -> Option<&V> {
        self.walk_leveled(index).0
    }

    /// Performs a counted walk, also returning the number of levels it
    /// touched — callers that memoize the result feed the levels back
    /// through [`PageWalker::recount_walk`] for each reuse.
    pub fn walk_leveled(&mut self, index: u64) -> (Option<&V>, u32) {
        let walk = self.table.walk(index);
        self.walks += 1;
        self.node_accesses += u64::from(walk.levels_touched);
        tally_depth(&mut self.depth_tally, walk.levels_touched);
        (walk.value, walk.levels_touched)
    }

    /// Counts a walk whose result the caller memoized from an earlier
    /// [`PageWalker::walk_leveled`] at the same table state: identical
    /// counter and obs effects, without touching the radix nodes.
    pub fn recount_walk(&mut self, levels_touched: u32) {
        self.walks += 1;
        self.node_accesses += u64::from(levels_touched);
        tally_depth(&mut self.depth_tally, levels_touched);
    }

    /// Number of walks performed.
    pub fn walks(&self) -> u64 {
        self.walks
    }

    /// Total page-table node accesses across all walks.
    pub fn node_accesses(&self) -> u64 {
        self.node_accesses
    }

    /// Mean memory accesses per walk (0 if no walks yet).
    pub fn mean_walk_cost(&self) -> f64 {
        mosaic_obs::fmt::safe_ratio(self.node_accesses, self.walks)
    }
}

/// Counts one walk of depth `levels_touched` (a free function so
/// [`PageWalker::walk_leveled`] can call it while the walk result still
/// borrows the table).
fn tally_depth(tally: &mut Vec<u64>, levels_touched: u32) {
    let d = levels_touched as usize;
    if tally.len() <= d {
        tally.resize(d + 1, 0);
    }
    tally[d] += 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_math() {
        assert_eq!(RadixTable::<u8>::new(36, 9).levels(), 4);
        assert_eq!(RadixTable::<u8>::new(30, 10).levels(), 3); // Figure 5
        assert_eq!(RadixTable::<u8>::new(34, 10).levels(), 4);
        assert_eq!(RadixTable::<u8>::new(9, 9).levels(), 1);
    }

    #[test]
    fn insert_get_remove() {
        let mut t: RadixTable<String> = RadixTable::new(36, 9);
        assert_eq!(t.insert(5, "five".into()), None);
        assert_eq!(t.insert(5, "FIVE".into()), Some("five".into()));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(5), Some(&"FIVE".to_string()));
        assert_eq!(t.remove(5), Some("FIVE".into()));
        assert_eq!(t.get(5), None);
        assert!(t.is_empty());
    }

    #[test]
    fn distinct_indices_do_not_alias() {
        let mut t: RadixTable<u64> = RadixTable::new(36, 9);
        // Indices that share low bits and indices that share high bits.
        let idxs = [0u64, 1, 512, 513, 1 << 27, (1 << 27) + 1, (1 << 36) - 1];
        for (i, &idx) in idxs.iter().enumerate() {
            t.insert(idx, i as u64);
        }
        for (i, &idx) in idxs.iter().enumerate() {
            assert_eq!(t.get(idx), Some(&(i as u64)), "index {idx:#x}");
        }
        assert_eq!(t.len(), idxs.len());
    }

    #[test]
    fn walk_cost_full_depth_on_mapped() {
        let mut t: RadixTable<u8> = RadixTable::new(36, 9);
        t.insert(1000, 1);
        let w = t.walk(1000);
        assert_eq!(w.levels_touched, 4);
        assert_eq!(w.value, Some(&1));
    }

    #[test]
    fn walk_terminates_early_on_missing_subtree() {
        let mut t: RadixTable<u8> = RadixTable::new(36, 9);
        t.insert(0, 1);
        // An index in a totally different top-level subtree stops at the root.
        let w = t.walk(1 << 35);
        assert_eq!(w.value, None);
        assert_eq!(w.levels_touched, 1);
        // A sibling within the same leaf costs the full walk.
        let w2 = t.walk(1);
        assert_eq!(w2.value, None);
        assert_eq!(w2.levels_touched, 4);
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut t: RadixTable<u64> = RadixTable::new(20, 10);
        t.insert(7, 1);
        *t.get_mut(7).unwrap() = 9;
        assert_eq!(t.get(7), Some(&9));
        assert_eq!(t.get_mut(8), None);
    }

    #[test]
    #[should_panic(expected = "exceeds 20 bits")]
    fn out_of_range_index_panics() {
        RadixTable::<u8>::new(20, 10).get(1 << 20);
    }

    #[test]
    fn uneven_top_level() {
        // 13 bits at 9 per level: top level 4 bits, then one 9-bit leaf level.
        let mut t: RadixTable<u32> = RadixTable::new(13, 9);
        assert_eq!(t.levels(), 2);
        let max = (1u64 << 13) - 1;
        t.insert(max, 42);
        t.insert(0, 43);
        assert_eq!(t.get(max), Some(&42));
        assert_eq!(t.get(0), Some(&43));
    }

    #[test]
    fn node_count_grows_with_spread() {
        let mut t: RadixTable<u8> = RadixTable::new(36, 9);
        let dense_before = t.node_count();
        for i in 0..512u64 {
            t.insert(i, 0); // all within one leaf chain
        }
        let dense = t.node_count();
        for i in 0..8u64 {
            t.insert(i << 30, 0); // scatter across top-level subtrees
        }
        assert!(t.node_count() > dense);
        assert!(dense > dense_before);
    }

    #[test]
    fn walker_counts_costs() {
        let mut w = PageWalker::new(RadixTable::<u8>::x86_vanilla());
        w.table_mut().insert(3, 7);
        assert_eq!(w.walk(3), Some(&7));
        assert_eq!(w.walk(1 << 35), None);
        assert_eq!(w.walks(), 2);
        assert_eq!(w.node_accesses(), 4 + 1);
        assert!((w.mean_walk_cost() - 2.5).abs() < 1e-12);

        // Binding after traffic sets the baseline: the two walks above
        // are never exported.
        let obs = mosaic_obs::ObsHandle::enabled();
        w.set_obs(&obs, "v");
        w.publish_obs();
        assert_eq!(obs.counter_value("ptw.v.walks"), 0);
        // Walks tally locally until a publish pushes walks and depths.
        w.walk(3);
        w.recount_walk(4);
        w.walk(1 << 35);
        assert_eq!(obs.counter_value("ptw.v.walks"), 0);
        w.publish_obs();
        w.publish_obs();
        assert_eq!(obs.counter_value("ptw.v.walks"), 3);
        let depth = obs.histogram("ptw.v.depth").snapshot();
        assert_eq!((depth.count(), depth.sum()), (3, 4 + 4 + 1));
        assert_eq!((depth.min(), depth.max()), (1, 4));
        assert_eq!(w.walks(), 5);
    }

    #[test]
    fn single_level_table() {
        let mut t: RadixTable<u8> = RadixTable::new(8, 9);
        assert_eq!(t.levels(), 1);
        t.insert(255, 9);
        assert_eq!(t.get(255), Some(&9));
        assert_eq!(t.walk(255).levels_touched, 1);
    }
}
