//! A generic set-associative cache with per-set true-LRU replacement.
//!
//! Both TLB flavours are built on this structure. The mosaic mapping
//! restrictions are "orthogonal to the associativity of the TLB itself"
//! (§3.1), so one cache model serves every point of the associativity
//! sweep in Figure 6.
//!
//! # Layout
//!
//! Storage is struct-of-arrays: flat `Vec`s (`tags`, `entries`, and the
//! recency links) indexed by `set * ways + way`, with no per-set
//! allocation. Tags are stored plain — every tag value is representable,
//! none is reserved as a sentinel — and a slot is live exactly when its
//! `entries` payload is `Some`. A linear lookup compares the probe
//! against the whole stripe of at most `ways` slots without an early
//! exit, folding `tag == probe` into a hit bitmask that the set's
//! occupancy mask clears of free slots' stale tags; the lowest remaining
//! bit is the slot. For the narrow associativities of the Figure 6 sweep
//! (1–8 ways) that is a handful of adjacent compares and no
//! data-dependent branch. Callers that keep payloads of their own
//! (the mosaic TLB's inline ToC arena) use the slot-index API
//! ([`SetAssocCache::lookup_slot`], [`SetAssocCache::insert_slot`]) and
//! index their storage by the slot handed back.
//!
//! Wide sets (beyond [`LINEAR_WAYS_MAX`] ways, i.e. the fully-associative
//! configuration) keep O(1) lookups through a `(set, tag) → slot` hash
//! index keyed with the workspace's multiply-fold
//! [`FastHasher`](mosaic_hash::FastHasher) (the std SipHash default
//! dominated whole-grid profiles; tags are small VPN-derived keys, not
//! attacker-controlled).
//!
//! Recency is an intrusive doubly-linked list per set (`prev`/`next`
//! slot links plus per-set `head`/`tail`): a hit moves its slot to the
//! head in O(1), the eviction victim is the tail in O(1), and free slots
//! are a chain through the same `next` links. This is exactly the order
//! the previous monotonic-tick implementation maintained (unique ticks,
//! min-tick victim), so eviction decisions are bit-identical — without
//! the O(ways) victim scan that dominated insert at 1024 ways.

use mosaic_hash::FastHashMap;
use std::collections::HashMap;
use std::hash::Hash;

/// TLB set associativity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Associativity {
    /// `n`-way set associative; `Ways(1)` is direct-mapped.
    Ways(usize),
    /// Fully associative (one set spanning every entry).
    Full,
}

impl Associativity {
    /// The associativity sweep of Figure 6.
    pub const FIGURE6_SWEEP: [Associativity; 5] = [
        Associativity::Ways(1),
        Associativity::Ways(2),
        Associativity::Ways(4),
        Associativity::Ways(8),
        Associativity::Full,
    ];

    /// Concrete way count for a given total entry count.
    ///
    /// # Panics
    ///
    /// Panics if `Ways(0)`.
    pub fn ways(self, entries: usize) -> usize {
        match self {
            Associativity::Ways(w) => {
                assert!(w > 0, "zero-way associativity");
                w
            }
            Associativity::Full => entries,
        }
    }
}

impl core::fmt::Display for Associativity {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Associativity::Ways(1) => write!(f, "Direct"),
            Associativity::Ways(n) => write!(f, "{n}-Way"),
            Associativity::Full => write!(f, "Full"),
        }
    }
}

/// TLB geometry: total entries and associativity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    entries: usize,
    assoc: Associativity,
}

impl TlbConfig {
    /// Creates a TLB configuration.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or not divisible by the way count.
    pub fn new(entries: usize, assoc: Associativity) -> Self {
        assert!(entries > 0, "entries must be positive");
        let ways = assoc.ways(entries);
        assert!(
            entries.is_multiple_of(ways),
            "entries ({entries}) must be a multiple of ways ({ways})"
        );
        Self { entries, assoc }
    }

    /// The paper's L1 TLB: 1024 entries (Table 1a).
    pub fn paper_default(assoc: Associativity) -> Self {
        Self::new(1024, assoc)
    }

    /// Total entries.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Associativity.
    pub fn associativity(&self) -> Associativity {
        self.assoc
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.entries / self.assoc.ways(self.entries)
    }

    /// Ways per set.
    pub fn ways(&self) -> usize {
        self.assoc.ways(self.entries)
    }
}

/// Widest stripe still probed by linear tag scan; wider sets (the
/// fully-associative sweep point) get a hash index so lookups stay O(1).
/// At most 32, the width of the scan's hit and occupancy bitmasks.
const LINEAR_WAYS_MAX: usize = 16;

/// Null slot link.
const NIL: u32 = u32::MAX;

/// A set-associative cache mapping tags to entries, true LRU per set.
///
/// The caller supplies the set index (computed from whatever address bits
/// its design uses), keeping this structure agnostic of tag semantics.
#[derive(Debug, Clone)]
pub struct SetAssocCache<T, E> {
    /// Slot tags, indexed `set * ways + way`. A free slot keeps a stale
    /// tag (or `T::default()`).
    tags: Vec<T>,
    /// Slot payloads (same indexing); `None` is a free slot.
    entries: Vec<Option<E>>,
    /// Recency link toward the set's head (more recent); [`NIL`] at head.
    prev: Vec<u32>,
    /// Recency link toward the set's tail (less recent); [`NIL`] at
    /// tail. Free slots reuse this link as their free-chain pointer.
    next: Vec<u32>,
    /// Per-set most-recently-used slot ([`NIL`] when the set is empty).
    head: Vec<u32>,
    /// Per-set least-recently-used slot — the eviction victim.
    tail: Vec<u32>,
    /// Per-set head of the free-slot chain (through `next`).
    free: Vec<u32>,
    /// Per-set occupancy bitmask (bit `w` set when way `w` is live) for
    /// linearly scanned stripes; empty when the hash `index` is used.
    occupied: Vec<u32>,
    num_sets: usize,
    ways: usize,
    len: usize,
    /// `num_sets - 1` when the set count is a power of two (every
    /// Figure 6 geometry), so the hot-path set index is a single AND.
    set_mask: Option<usize>,
    /// `⌊2^64 / num_sets⌋` for non-power-of-two set counts: the
    /// reciprocal-multiply stride that replaces the modulo fallback.
    recip: u64,
    /// `(set, tag) → slot` for stripes too wide to scan linearly.
    index: Option<FastHashMap<(usize, T), u32>>,
}

impl<T: Copy + Eq + Hash + Default, E> SetAssocCache<T, E> {
    /// Creates an empty cache from a TLB configuration.
    pub fn new(cfg: TlbConfig) -> Self {
        let num_sets = cfg.num_sets();
        let ways = cfg.ways();
        let capacity = num_sets * ways;
        let mut cache = Self {
            tags: vec![T::default(); capacity],
            entries: (0..capacity).map(|_| None).collect(),
            prev: vec![NIL; capacity],
            next: vec![NIL; capacity],
            head: vec![NIL; num_sets],
            tail: vec![NIL; num_sets],
            free: vec![NIL; num_sets],
            occupied: if ways > LINEAR_WAYS_MAX {
                Vec::new()
            } else {
                vec![0; num_sets]
            },
            num_sets,
            ways,
            len: 0,
            set_mask: num_sets.is_power_of_two().then(|| num_sets - 1),
            recip: if num_sets > 1 {
                ((1u128 << 64) / num_sets as u128) as u64
            } else {
                0
            },
            index: (ways > LINEAR_WAYS_MAX).then(FastHashMap::default),
        };
        cache.chain_free_slots();
        cache
    }

    /// Chains every slot of every set into its free list, in stripe
    /// order (so a fresh cache fills slots in the same order the old
    /// first-free-slot scan did).
    fn chain_free_slots(&mut self) {
        for s in 0..self.num_sets {
            let base = s * self.ways;
            for i in base..base + self.ways - 1 {
                self.next[i] = (i + 1) as u32;
            }
            self.next[base + self.ways - 1] = NIL;
            self.free[s] = base as u32;
        }
    }

    /// Unlinks `slot` from set `s`'s recency list.
    #[inline]
    fn unlink(&mut self, s: usize, slot: usize) {
        let (p, n) = (self.prev[slot], self.next[slot]);
        if p == NIL {
            self.head[s] = n;
        } else {
            self.next[p as usize] = n;
        }
        if n == NIL {
            self.tail[s] = p;
        } else {
            self.prev[n as usize] = p;
        }
    }

    /// Pushes `slot` to the head (MRU position) of set `s`'s list.
    #[inline]
    fn push_front(&mut self, s: usize, slot: usize) {
        let h = self.head[s];
        self.prev[slot] = NIL;
        self.next[slot] = h;
        if h == NIL {
            self.tail[s] = slot as u32;
        } else {
            self.prev[h as usize] = slot as u32;
        }
        self.head[s] = slot as u32;
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Ways per set.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total capacity in entries.
    pub fn capacity(&self) -> usize {
        self.tags.len()
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn set_of(&self, set: usize) -> usize {
        if let Some(mask) = self.set_mask {
            return set & mask;
        }
        // Reciprocal-multiply strength reduction of `set % num_sets`
        // (Lemire-style): with m = ⌊2^64/d⌋, q̂ = (x·m) >> 64 is q or
        // q−1, so one conditional subtract yields the exact remainder.
        let x = set as u64;
        let d = self.num_sets as u64;
        let q = ((u128::from(x) * u128::from(self.recip)) >> 64) as u64;
        let mut r = x - q * d;
        if r >= d {
            r -= d;
        }
        r as usize
    }

    /// The slot holding `tag` within set `s`, if resident.
    ///
    /// The linear path compares every slot of the stripe (no early
    /// exit) into a hit bitmask and masks out free slots; at most one
    /// live slot per set holds a given tag (fills happen only on a
    /// miss), so at most one bit survives. The indexed path stays out
    /// of line so this scan (and [`SetAssocCache::promote`]) inlines
    /// into the TLB lookups.
    #[inline(always)]
    fn slot_of(&self, s: usize, tag: T) -> Option<usize> {
        if self.index.is_some() {
            return self.indexed_slot_of(s, tag);
        }
        let base = s * self.ways;
        let stripe = &self.tags[base..base + self.ways];
        // Fixed-width stripes compile to straight-line compares.
        let hits = match self.ways {
            1 => hit_mask::<T, 1>(stripe, tag),
            2 => hit_mask::<T, 2>(stripe, tag),
            4 => hit_mask::<T, 4>(stripe, tag),
            8 => hit_mask::<T, 8>(stripe, tag),
            16 => hit_mask::<T, 16>(stripe, tag),
            _ => stripe
                .iter()
                .enumerate()
                .fold(0, |m, (w, t)| m | u32::from(*t == tag) << w),
        } & self.occupied[s];
        (hits != 0).then(|| base + hits.trailing_zeros() as usize)
    }

    /// [`SetAssocCache::slot_of`] through the `(set, tag)` hash index of
    /// a wide set.
    #[inline(never)]
    fn indexed_slot_of(&self, s: usize, tag: T) -> Option<usize> {
        let ix = self.index.as_ref()?;
        ix.get(&(s, tag)).map(|&i| i as usize)
    }

    /// Moves `slot` to the head (MRU position) of set `s`.
    #[inline(always)]
    fn promote(&mut self, s: usize, slot: usize) {
        if self.head[s] != slot as u32 {
            self.unlink(s, slot);
            self.push_front(s, slot);
        }
    }

    /// Looks up `tag` in `set`, refreshing its LRU position on a hit.
    #[inline(always)]
    pub fn lookup(&mut self, set: usize, tag: T) -> Option<&mut E> {
        let slot = self.lookup_slot(set, tag)?;
        self.entries[slot].as_mut()
    }

    /// [`SetAssocCache::lookup`] that hands back the hit's slot index
    /// (`set * ways + way`, below [`SetAssocCache::capacity`]) instead
    /// of its payload, for callers that keep per-slot storage of their
    /// own. A slot keeps its index until its entry is evicted or
    /// invalidated.
    #[inline(always)]
    pub fn lookup_slot(&mut self, set: usize, tag: T) -> Option<usize> {
        let s = self.set_of(set);
        let slot = self.slot_of(s, tag)?;
        self.promote(s, slot);
        Some(slot)
    }

    /// [`SetAssocCache::lookup_slot`] with a guess: when slot `hint`
    /// still holds `tag` in `set`, it is refreshed without a tag scan
    /// (the same LRU effect as a lookup); otherwise this is a plain
    /// lookup.
    #[inline]
    pub fn lookup_slot_hinted(&mut self, set: usize, tag: T, hint: usize) -> Option<usize> {
        let s = self.set_of(set);
        let in_set = hint.wrapping_sub(s * self.ways) < self.ways;
        let slot = if in_set && self.entries[hint].is_some() && self.tags[hint] == tag {
            hint
        } else {
            self.slot_of(s, tag)?
        };
        self.promote(s, slot);
        Some(slot)
    }

    /// Looks up without disturbing LRU state (diagnostics).
    pub fn peek(&self, set: usize, tag: T) -> Option<&E> {
        let s = self.set_of(set);
        self.entries[self.slot_of(s, tag)?].as_ref()
    }

    /// Inserts `tag -> entry` into `set`, evicting the set's LRU entry if
    /// the set is full. Returns the evicted `(tag, entry)`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `tag` is already present in the set (callers fill only on
    /// a miss).
    pub fn insert(&mut self, set: usize, tag: T, entry: E) -> Option<(T, E)> {
        self.insert_slot(set, tag, entry).1
    }

    /// [`SetAssocCache::insert`] that also hands back the slot index the
    /// entry now occupies (the evicted entry's slot, on an eviction).
    ///
    /// # Panics
    ///
    /// Panics if `tag` is already present in the set (callers fill only on
    /// a miss).
    pub fn insert_slot(&mut self, set: usize, tag: T, entry: E) -> (usize, Option<(T, E)>) {
        let s = self.set_of(set);
        // Fill-only-on-miss contract: the indexed path asks its map, the
        // linear path rescans the (short) stripe.
        match &self.index {
            Some(ix) => assert!(
                !ix.contains_key(&(s, tag)),
                "insert of a tag already present"
            ),
            None => assert!(
                self.slot_of(s, tag).is_none(),
                "insert of a tag already present"
            ),
        }
        let (slot, evicted) = if self.free[s] != NIL {
            // Pop the free chain: O(1), same fill order as the old
            // first-free-slot stripe scan on a fresh set.
            let slot = self.free[s] as usize;
            self.free[s] = self.next[slot];
            self.len += 1;
            (slot, None)
        } else {
            // Evict the tail — the least-recently-used slot.
            let victim = self.tail[s] as usize;
            self.unlink(s, victim);
            let old_tag = self.tags[victim];
            let old_entry = self.entries[victim]
                .take()
                .expect("resident slot has a payload");
            if let Some(ix) = &mut self.index {
                ix.remove(&(s, old_tag));
            }
            (victim, Some((old_tag, old_entry)))
        };
        self.tags[slot] = tag;
        self.entries[slot] = Some(entry);
        self.push_front(s, slot);
        match &mut self.index {
            Some(ix) => {
                ix.insert((s, tag), slot as u32);
            }
            None => self.occupied[s] |= 1 << (slot - s * self.ways),
        }
        (slot, evicted)
    }

    /// Removes `tag` from `set`, returning its entry.
    pub fn invalidate(&mut self, set: usize, tag: T) -> Option<E> {
        let s = self.set_of(set);
        let slot = self.slot_of(s, tag)?;
        self.unlink(s, slot);
        let entry = self.entries[slot].take();
        // Push onto the free chain for O(1) reuse.
        self.next[slot] = self.free[s];
        self.free[s] = slot as u32;
        match &mut self.index {
            Some(ix) => {
                ix.remove(&(s, tag));
            }
            None => self.occupied[s] &= !(1 << (slot - s * self.ways)),
        }
        self.len -= 1;
        entry
    }

    /// Removes every entry (a full TLB flush).
    pub fn flush(&mut self) {
        self.entries.iter_mut().for_each(|e| *e = None);
        self.occupied.iter_mut().for_each(|o| *o = 0);
        self.head.iter_mut().for_each(|h| *h = NIL);
        self.tail.iter_mut().for_each(|t| *t = NIL);
        self.chain_free_slots();
        if let Some(ix) = &mut self.index {
            ix.clear();
        }
        self.len = 0;
    }

    /// Iterates over `(tag, entry)` pairs (diagnostics), in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (&T, &E)> {
        self.tags
            .iter()
            .zip(&self.entries)
            .filter_map(|(t, e)| Some((t, e.as_ref()?)))
    }

    /// Per-set occupancy histogram (diagnostics).
    pub fn set_occupancy(&self) -> HashMap<usize, usize> {
        (0..self.num_sets)
            .map(|s| {
                let base = s * self.ways;
                let occ = self.entries[base..base + self.ways]
                    .iter()
                    .filter(|e| e.is_some())
                    .count();
                (s, occ)
            })
            .collect()
    }
}

/// Bit `w` set where `stripe[w] == tag`, over a stripe of exactly `W`
/// slots (no early exit).
#[inline(always)]
fn hit_mask<T: Eq, const W: usize>(stripe: &[T], tag: T) -> u32 {
    let stripe: &[T; W] = stripe.try_into().expect("stripe of W slots");
    let mut hits = 0;
    for (w, t) in stripe.iter().enumerate() {
        hits |= u32::from(*t == tag) << w;
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(entries: usize, assoc: Associativity) -> SetAssocCache<u64, u64> {
        SetAssocCache::new(TlbConfig::new(entries, assoc))
    }

    #[test]
    fn config_geometry() {
        let c = TlbConfig::new(1024, Associativity::Ways(8));
        assert_eq!(c.num_sets(), 128);
        assert_eq!(c.ways(), 8);
        let f = TlbConfig::new(1024, Associativity::Full);
        assert_eq!(f.num_sets(), 1);
        assert_eq!(f.ways(), 1024);
    }

    #[test]
    fn display_names_match_figure6() {
        assert_eq!(Associativity::Ways(1).to_string(), "Direct");
        assert_eq!(Associativity::Ways(8).to_string(), "8-Way");
        assert_eq!(Associativity::Full.to_string(), "Full");
    }

    #[test]
    #[should_panic(expected = "multiple of ways")]
    fn indivisible_config_panics() {
        TlbConfig::new(1024, Associativity::Ways(3));
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let mut c = cache(16, Associativity::Ways(4));
        assert!(c.lookup(0, 42).is_none());
        c.insert(0, 42, 7);
        assert_eq!(c.lookup(0, 42), Some(&mut 7));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = cache(8, Associativity::Ways(2)); // 4 sets x 2 ways
        c.insert(1, 10, 0);
        c.insert(1, 20, 0);
        // Touch 10 so 20 is LRU.
        c.lookup(1, 10);
        let evicted = c.insert(1, 30, 0);
        assert_eq!(evicted.map(|(t, _)| t), Some(20));
        assert!(c.peek(1, 10).is_some());
        assert!(c.peek(1, 30).is_some());
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = cache(4, Associativity::Ways(1));
        c.insert(0, 100, 0);
        let evicted = c.insert(0, 200, 0);
        assert_eq!(evicted.map(|(t, _)| t), Some(100));
        assert!(c.peek(0, 100).is_none());
    }

    #[test]
    fn full_assoc_uses_whole_capacity() {
        let mut c = cache(4, Associativity::Full);
        for t in 0..4u64 {
            // Set index is ignored (mod 1).
            assert!(c.insert(t as usize * 13, t, t).is_none());
        }
        assert_eq!(c.len(), 4);
        // Fifth insert evicts the LRU (tag 0).
        let evicted = c.insert(99, 4, 4);
        assert_eq!(evicted.map(|(t, _)| t), Some(0));
    }

    #[test]
    fn wide_set_uses_hash_index_and_matches_lru() {
        // 1024-way full associativity takes the indexed path.
        let mut c = cache(1024, Associativity::Full);
        for t in 0..1024u64 {
            assert!(c.insert(0, t, t).is_none());
        }
        // Refresh everything except tag 7; it becomes the victim.
        for t in (0..1024u64).filter(|&t| t != 7) {
            assert!(c.lookup(0, t).is_some());
        }
        let evicted = c.insert(0, 5000, 0);
        assert_eq!(evicted.map(|(t, _)| t), Some(7));
        assert!(c.peek(0, 7).is_none());
        assert_eq!(c.len(), 1024);
    }

    #[test]
    fn invalidate_and_flush() {
        let mut c = cache(8, Associativity::Ways(2));
        c.insert(2, 5, 50);
        assert_eq!(c.invalidate(2, 5), Some(50));
        assert_eq!(c.invalidate(2, 5), None);
        c.insert(0, 1, 1);
        c.insert(1, 2, 2);
        c.flush();
        assert!(c.is_empty());
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn duplicate_insert_panics() {
        let mut c = cache(4, Associativity::Ways(2));
        c.insert(0, 1, 1);
        c.insert(0, 1, 2);
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn duplicate_insert_panics_on_indexed_path() {
        let mut c = cache(64, Associativity::Full);
        c.insert(0, 1, 1);
        c.insert(0, 1, 2);
    }

    #[test]
    fn set_wraps_modulo() {
        let mut c = cache(8, Associativity::Ways(2)); // 4 sets
        c.insert(5, 77, 0); // set 1
        assert!(c.peek(1, 77).is_some());
    }

    #[test]
    fn non_power_of_two_sets_match_modulo() {
        // 96 entries / 8 ways = 12 sets: exercises the reciprocal stride.
        let c = cache(96, Associativity::Ways(8));
        assert_eq!(c.num_sets(), 12);
        for set in [0usize, 1, 11, 12, 13, 95, 96, 12345, usize::MAX / 3] {
            assert_eq!(c.set_of(set), set % 12, "set {set}");
        }
        // Beyond u32: kernel VPNs live above 2^35.
        for set in [(1usize << 35) + 9, (1usize << 52) + 5, usize::MAX] {
            assert_eq!(c.set_of(set), set % 12, "set {set}");
        }
    }

    #[test]
    fn non_power_of_two_sets_store_and_conflict() {
        let mut c = cache(6, Associativity::Ways(2)); // 3 sets
        c.insert(0, 1, 10);
        c.insert(3, 2, 20); // also set 0
        assert!(c.peek(0, 1).is_some());
        assert!(c.peek(3, 2).is_some());
        let evicted = c.insert(6, 3, 30); // set 0 again: evicts LRU (tag 1)
        assert_eq!(evicted.map(|(t, _)| t), Some(1));
    }

    #[test]
    fn peek_does_not_refresh_lru() {
        let mut c = cache(4, Associativity::Ways(2)); // 2 sets x 2 ways
        c.insert(0, 1, 0);
        c.insert(0, 2, 0);
        // Peek at 1 (no LRU update), then insert: 1 is still LRU.
        c.peek(0, 1);
        let evicted = c.insert(0, 3, 0);
        assert_eq!(evicted.map(|(t, _)| t), Some(1));
    }

    #[test]
    fn reinsert_after_invalidate_reuses_slot() {
        let mut c = cache(4, Associativity::Ways(2));
        c.insert(0, 1, 1);
        c.insert(0, 2, 2);
        c.invalidate(0, 1);
        assert_eq!(c.len(), 1);
        // Free slot is used before any eviction.
        assert!(c.insert(0, 3, 3).is_none());
        assert_eq!(c.len(), 2);
    }
}
