//! Exact least-recently-used indexes.
//!
//! Two structures, one order: entries sorted by the timestamp of their
//! most recent touch, ties broken by touch order (the earlier touch is
//! older), so the order is total even when the caller reuses or rewinds
//! timestamps.
//!
//! * [`FrameLru`] keys entries by dense frame number. It is an intrusive
//!   doubly-linked list in one `Vec` indexed by [`Pfn`], allocated once
//!   when a manager is built; the page in a frame is the frame table's
//!   business, not the list's. A touch unlinks the frame and re-links it
//!   after the newest entry whose timestamp is not later than its own, so
//!   with a monotone clock (every manager's) each operation is O(1). Both
//!   memory managers' global LRUs use it: the Linux baseline's exact-LRU
//!   reclaim and Mosaic's `ReservedCapacity` policy.
//! * [`LruIndex`] keys entries by any hashable key with `O(log n)`
//!   updates (a `BTreeMap` ordered by age plus a back-pointer map). It
//!   serves the sparse, per-tenant quota LRUs and the page-walk cache,
//!   whose keys are not dense.
//!
//! (Real Linux approximates LRU with active/inactive lists; the paper's
//! own baseline measurements are against stock Linux reclaim, and exact
//! LRU is the canonical idealisation — see DESIGN.md.)

use crate::addr::Pfn;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// An LRU index: a set of keys ordered by the timestamp of their most
/// recent [`touch`](LruIndex::touch).
///
/// Ties on the timestamp are broken by touch order (earlier touch is
/// considered older), so the structure is total-ordered even if the caller
/// reuses timestamps.
///
/// # Example
///
/// ```
/// use mosaic_mem::lru::LruIndex;
///
/// let mut lru = LruIndex::new();
/// lru.touch("a", 1);
/// lru.touch("b", 2);
/// lru.touch("a", 3); // "a" is now the most recent
/// assert_eq!(lru.pop_oldest(), Some(("b", 2)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct LruIndex<K> {
    /// `(timestamp, tiebreak) -> key`, ordered oldest first.
    by_age: BTreeMap<(u64, u64), K>,
    /// `key -> (timestamp, tiebreak)` back-pointers.
    position: HashMap<K, (u64, u64)>,
    /// Monotonic tiebreaker for equal timestamps.
    counter: u64,
}

impl<K: Copy + Eq + Hash> LruIndex<K> {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self {
            by_age: BTreeMap::new(),
            position: HashMap::new(),
            counter: 0,
        }
    }

    /// Number of keys tracked.
    pub fn len(&self) -> usize {
        self.by_age.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.by_age.is_empty()
    }

    /// Records an access to `key` at time `now`, inserting it if absent.
    pub fn touch(&mut self, key: K, now: u64) {
        if let Some(old) = self.position.remove(&key) {
            self.by_age.remove(&old);
        }
        let pos = (now, self.counter);
        self.counter += 1;
        self.by_age.insert(pos, key);
        self.position.insert(key, pos);
    }

    /// Removes `key`, returning its last-touch timestamp if present.
    pub fn remove(&mut self, key: &K) -> Option<u64> {
        let pos = self.position.remove(key)?;
        self.by_age.remove(&pos);
        Some(pos.0)
    }

    /// Removes and returns the least-recently-touched key and its timestamp.
    pub fn pop_oldest(&mut self) -> Option<(K, u64)> {
        let (&pos, &key) = self.by_age.iter().next()?;
        self.by_age.remove(&pos);
        self.position.remove(&key);
        Some((key, pos.0))
    }

    /// The least-recently-touched key without removing it.
    pub fn peek_oldest(&self) -> Option<(K, u64)> {
        self.by_age.iter().next().map(|(&(ts, _), &k)| (k, ts))
    }

    /// Iterates keys oldest-first without removing them.
    pub fn iter_oldest(&self) -> impl Iterator<Item = (K, u64)> + '_ {
        self.by_age.iter().map(|(&(ts, _), &k)| (k, ts))
    }

    /// Whether the index contains `key`.
    pub fn contains(&self, key: &K) -> bool {
        self.position.contains_key(key)
    }

    /// The last-touch timestamp of `key`, if tracked.
    pub fn timestamp(&self, key: &K) -> Option<u64> {
        self.position.get(key).map(|&(ts, _)| ts)
    }
}

/// The `prev`/`next` value of a frame that is not in the list.
const UNLINKED: u32 = u32::MAX;

/// One node of a [`FrameLru`]: the neighbour toward the oldest end
/// (`prev`), the neighbour toward the newest end (`next`), and the frame's
/// last-touch timestamp.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Link {
    pub(crate) prev: u32,
    pub(crate) next: u32,
    pub(crate) ts: u64,
}

/// An exact LRU over the frames `0..num_frames`, in [`LruIndex`]'s order.
/// See the [module docs](self).
///
/// # Example
///
/// ```
/// use mosaic_mem::lru::FrameLru;
/// use mosaic_mem::Pfn;
///
/// let mut lru = FrameLru::new(4);
/// lru.touch(Pfn(0), 1);
/// lru.touch(Pfn(1), 2);
/// lru.touch(Pfn(0), 3); // frame 0 is now the most recent
/// assert_eq!(lru.oldest(), Some(Pfn(1)));
/// ```
#[derive(Debug, Clone)]
pub struct FrameLru {
    /// `links[pfn]` for every frame, then a sentinel whose `next` is the
    /// oldest frame and whose `prev` is the newest (itself when empty).
    pub(crate) links: Vec<Link>,
    len: usize,
}

impl FrameLru {
    /// Creates an empty list over `num_frames` frames.
    ///
    /// # Panics
    ///
    /// Panics if `num_frames` does not fit a 32-bit link.
    pub fn new(num_frames: usize) -> Self {
        let sentinel = u32::try_from(num_frames)
            .ok()
            .filter(|&s| s != UNLINKED)
            .expect("frame count fits a 32-bit link");
        let mut links = vec![
            Link {
                prev: UNLINKED,
                next: UNLINKED,
                ts: 0,
            };
            num_frames + 1
        ];
        links[num_frames] = Link {
            prev: sentinel,
            next: sentinel,
            ts: 0,
        };
        Self { links, len: 0 }
    }

    fn sentinel(&self) -> u32 {
        (self.links.len() - 1) as u32
    }

    /// Number of frames in the list.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `pfn` is in the list.
    pub fn contains(&self, pfn: Pfn) -> bool {
        self.links[pfn.0 as usize].next != UNLINKED
    }

    /// Records an access to the page in `pfn` at time `now`, linking the
    /// frame if absent. It goes after every frame touched at or before
    /// `now`, which is O(1) when `now` is the newest timestamp.
    ///
    /// # Panics
    ///
    /// Panics if `pfn` is outside the list's frame range.
    #[inline]
    pub fn touch(&mut self, pfn: Pfn, now: u64) {
        let sentinel = self.sentinel();
        assert!(
            pfn.0 < u64::from(sentinel),
            "touch of {pfn} outside the LRU"
        );
        let node = pfn.0 as u32;
        if self.contains(pfn) {
            self.unlink(node);
        } else {
            self.len += 1;
        }
        let mut after = self.links[sentinel as usize].prev;
        while after != sentinel && self.links[after as usize].ts > now {
            after = self.links[after as usize].prev;
        }
        let next = self.links[after as usize].next;
        self.links[node as usize] = Link {
            prev: after,
            next,
            ts: now,
        };
        self.links[after as usize].next = node;
        self.links[next as usize].prev = node;
    }

    /// Removes `pfn`, returning its last-touch timestamp if present.
    #[inline]
    pub fn remove(&mut self, pfn: Pfn) -> Option<u64> {
        if !self.contains(pfn) {
            return None;
        }
        let node = pfn.0 as u32;
        self.unlink(node);
        self.len -= 1;
        let link = &mut self.links[node as usize];
        link.prev = UNLINKED;
        link.next = UNLINKED;
        Some(link.ts)
    }

    fn unlink(&mut self, node: u32) {
        let Link { prev, next, .. } = self.links[node as usize];
        self.links[prev as usize].next = next;
        self.links[next as usize].prev = prev;
    }

    /// The least-recently-touched frame.
    #[inline]
    pub fn oldest(&self) -> Option<Pfn> {
        let head = self.links[self.sentinel() as usize].next;
        (head != self.sentinel()).then_some(Pfn(u64::from(head)))
    }

    /// Iterates frames and their timestamps oldest-first (the bounded
    /// victim scan quota-aware reclaim uses).
    pub fn iter_oldest(&self) -> impl Iterator<Item = (Pfn, u64)> + '_ {
        let sentinel = self.sentinel();
        let mut at = self.links[sentinel as usize].next;
        std::iter::from_fn(move || {
            if at == sentinel {
                return None;
            }
            let link = self.links[at as usize];
            let item = (Pfn(u64::from(at)), link.ts);
            at = link.next;
            Some(item)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_lru_orders_by_timestamp_then_touch() {
        let mut lru = FrameLru::new(8);
        lru.touch(Pfn(3), 5);
        lru.touch(Pfn(1), 5);
        lru.touch(Pfn(2), 4); // an older timestamp goes ahead of both
        lru.touch(Pfn(3), 5); // a re-touch at an equal time goes last
        let order: Vec<(Pfn, u64)> = lru.iter_oldest().collect();
        assert_eq!(order, vec![(Pfn(2), 4), (Pfn(1), 5), (Pfn(3), 5)]);
        assert_eq!(lru.len(), 3);
        assert_eq!(lru.remove(Pfn(1)), Some(5));
        assert_eq!(lru.remove(Pfn(1)), None);
        assert!(!lru.contains(Pfn(1)));
        assert_eq!(lru.oldest(), Some(Pfn(2)));
        lru.remove(Pfn(2));
        lru.remove(Pfn(3));
        assert!(lru.is_empty());
        assert_eq!(lru.oldest(), None);
    }

    #[test]
    #[should_panic(expected = "outside the LRU")]
    fn frame_lru_rejects_out_of_range_frames() {
        FrameLru::new(4).touch(Pfn(4), 1);
    }

    #[test]
    fn pop_order_is_lru() {
        let mut lru = LruIndex::new();
        lru.touch(10u32, 5);
        lru.touch(20, 3);
        lru.touch(30, 7);
        assert_eq!(lru.pop_oldest(), Some((20, 3)));
        assert_eq!(lru.pop_oldest(), Some((10, 5)));
        assert_eq!(lru.pop_oldest(), Some((30, 7)));
        assert_eq!(lru.pop_oldest(), None);
    }

    #[test]
    fn touch_moves_to_back() {
        let mut lru = LruIndex::new();
        lru.touch(1u8, 1);
        lru.touch(2, 2);
        lru.touch(1, 3);
        assert_eq!(lru.peek_oldest(), Some((2, 2)));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn equal_timestamps_break_by_touch_order() {
        let mut lru = LruIndex::new();
        lru.touch('a', 1);
        lru.touch('b', 1);
        lru.touch('c', 1);
        assert_eq!(lru.pop_oldest().unwrap().0, 'a');
        assert_eq!(lru.pop_oldest().unwrap().0, 'b');
        assert_eq!(lru.pop_oldest().unwrap().0, 'c');
    }

    #[test]
    fn remove_detaches_key() {
        let mut lru = LruIndex::new();
        lru.touch(1u64, 1);
        lru.touch(2, 2);
        assert_eq!(lru.remove(&1), Some(1));
        assert_eq!(lru.remove(&1), None);
        assert!(!lru.contains(&1));
        assert_eq!(lru.pop_oldest(), Some((2, 2)));
    }

    #[test]
    fn iter_oldest_is_nondestructive_and_ordered() {
        let mut lru = LruIndex::new();
        lru.touch(3u32, 30);
        lru.touch(1, 10);
        lru.touch(2, 20);
        let order: Vec<(u32, u64)> = lru.iter_oldest().collect();
        assert_eq!(order, vec![(1, 10), (2, 20), (3, 30)]);
        assert_eq!(lru.len(), 3, "iteration must not consume");
    }

    #[test]
    fn timestamp_query() {
        let mut lru = LruIndex::new();
        lru.touch(9u16, 42);
        assert_eq!(lru.timestamp(&9), Some(42));
        assert_eq!(lru.timestamp(&8), None);
    }

    #[test]
    fn large_population_pops_sorted() {
        let mut lru = LruIndex::new();
        // Insert with pseudo-shuffled timestamps.
        for i in 0..1000u64 {
            lru.touch(i, (i * 2_654_435_761) % 10_000);
        }
        let mut last = 0;
        let mut n = 0;
        while let Some((_, ts)) = lru.pop_oldest() {
            assert!(ts >= last, "out of order");
            last = ts;
            n += 1;
        }
        assert_eq!(n, 1000);
    }
}
