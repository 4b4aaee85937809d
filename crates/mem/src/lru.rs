//! Exact least-recently-used lists over frame numbers.
//!
//! A [`FrameLru`] keeps one or more lists over the frames
//! `0..num_frames`. Each list is ordered by the timestamp of its frames'
//! most recent touch, ties broken by touch order (the earlier touch is
//! older), so the order is total even when the caller reuses or rewinds
//! timestamps. A frame is in at most one list at a time.
//!
//! The lists are intrusive doubly-linked lists threaded through one `Vec`
//! indexed by [`Pfn`], allocated once when a manager is built, plus one
//! sentinel node per list; the page in a frame is the frame table's
//! business, not the list's. A touch unlinks the frame and re-links it
//! after the newest entry of its list whose timestamp is not later than
//! its own, so with a monotone clock (every manager's) each operation is
//! O(1). Its users:
//!
//! * the Linux baseline's exact-LRU reclaim and Mosaic's
//!   `ReservedCapacity` policy, one global list each ([`ListId::FIRST`]);
//! * the [`QuotaTable`](crate::quota::QuotaTable), a `FrameLru` of its
//!   own with one list per tenant (every resident frame has exactly one
//!   owner), for self-eviction.
//!
//! (Real Linux approximates LRU with active/inactive lists; the paper's
//! own baseline measurements are against stock Linux reclaim, and exact
//! LRU is the canonical idealisation — see DESIGN.md.)

use crate::addr::Pfn;

/// The `prev`/`next` value of a frame that is in no list.
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

/// One of a [`FrameLru`]'s lists, numbered from 0 in creation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ListId(pub u32);

impl ListId {
    /// The first list: the only one of a single-list [`FrameLru`].
    pub const FIRST: ListId = ListId(0);
}

/// Exact LRU lists over the frames `0..num_frames`. See the
/// [module docs](self).
///
/// # Example
///
/// ```
/// use mosaic_mem::lru::{FrameLru, ListId};
/// use mosaic_mem::Pfn;
///
/// let mut lru = FrameLru::new(4, 1);
/// let list = ListId::FIRST;
/// lru.touch(list, Pfn(0), 1);
/// lru.touch(list, Pfn(1), 2);
/// lru.touch(list, Pfn(0), 3); // frame 0 is now the most recent
/// assert_eq!(lru.oldest(list), Some(Pfn(1)));
/// ```
#[derive(Debug, Clone)]
pub struct FrameLru {
    /// `links[pfn]` for every frame, then one sentinel per list whose
    /// `next` is the list's oldest frame and whose `prev` is its newest
    /// (the sentinel itself when the list is empty).
    pub(crate) links: Vec<Link>,
    /// Frames linked in each list.
    lens: Vec<usize>,
    num_frames: u32,
}

impl FrameLru {
    /// Creates `lists` empty lists over `num_frames` frames.
    ///
    /// # Panics
    ///
    /// Panics if `num_frames` does not fit a 32-bit link.
    pub fn new(num_frames: usize, lists: usize) -> Self {
        let num_frames = u32::try_from(num_frames)
            .ok()
            .filter(|&n| n != UNLINKED)
            .expect("frame count fits a 32-bit link");
        let unlinked = Link {
            prev: UNLINKED,
            next: UNLINKED,
            ts: 0,
        };
        let mut lru = Self {
            links: vec![unlinked; num_frames as usize],
            lens: Vec::new(),
            num_frames,
        };
        for _ in 0..lists {
            lru.add_list();
        }
        lru
    }

    /// Adds an empty list and returns it.
    ///
    /// # Panics
    ///
    /// Panics if the new sentinel does not fit a 32-bit link.
    pub(crate) fn add_list(&mut self) -> ListId {
        let sentinel = u32::try_from(self.links.len())
            .ok()
            .filter(|&s| s != UNLINKED)
            .expect("list count fits a 32-bit link");
        self.links.push(Link {
            prev: sentinel,
            next: sentinel,
            ts: 0,
        });
        self.lens.push(0);
        ListId(sentinel - self.num_frames)
    }

    /// The sentinel node of `list`.
    #[inline]
    pub(crate) fn sentinel(&self, list: ListId) -> u32 {
        self.num_frames + list.0
    }

    /// Number of frames the lists range over.
    pub(crate) fn num_frames(&self) -> usize {
        self.num_frames as usize
    }

    /// Number of frames in `list`.
    #[inline]
    pub fn len(&self, list: ListId) -> usize {
        self.lens[list.0 as usize]
    }

    /// Whether `list` is empty.
    #[inline]
    pub fn is_empty(&self, list: ListId) -> bool {
        self.len(list) == 0
    }

    /// Whether `pfn` is in any list.
    #[inline]
    pub fn contains(&self, pfn: Pfn) -> bool {
        self.links[pfn.0 as usize].next != UNLINKED
    }

    /// Records an access to the page in `pfn` at time `now`, linking the
    /// frame into `list` if it is in no list. It goes after every frame
    /// of `list` touched at or before `now`, which is O(1) when `now` is
    /// the list's newest timestamp. A linked frame must already be in
    /// `list`.
    ///
    /// # Panics
    ///
    /// Panics if `pfn` is outside the lists' frame range.
    #[inline]
    pub fn touch(&mut self, list: ListId, pfn: Pfn, now: u64) {
        assert!(
            pfn.0 < u64::from(self.num_frames),
            "touch of {pfn} outside the LRU"
        );
        let sentinel = self.sentinel(list);
        let node = pfn.0 as u32;
        if self.contains(pfn) {
            self.unlink(node);
        } else {
            self.lens[list.0 as usize] += 1;
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

    /// Removes `pfn` from `list`, the list it is in, returning its
    /// last-touch timestamp if it was linked.
    #[inline]
    pub fn remove(&mut self, list: ListId, pfn: Pfn) -> Option<u64> {
        if !self.contains(pfn) {
            return None;
        }
        let node = pfn.0 as u32;
        self.unlink(node);
        self.lens[list.0 as usize] -= 1;
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

    /// The least-recently-touched frame of `list`.
    #[inline]
    pub fn oldest(&self, list: ListId) -> Option<Pfn> {
        let sentinel = self.sentinel(list);
        let head = self.links[sentinel as usize].next;
        (head != sentinel).then_some(Pfn(u64::from(head)))
    }

    /// Iterates the frames of `list` and their timestamps oldest-first
    /// (the bounded victim scan quota-aware reclaim uses).
    pub fn iter_oldest(&self, list: ListId) -> impl Iterator<Item = (Pfn, u64)> + '_ {
        let sentinel = self.sentinel(list);
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

    const L: ListId = ListId::FIRST;

    /// Empties `list` oldest-first, as `(frame, timestamp)` pairs.
    fn drain(lru: &mut FrameLru, list: ListId) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(pfn) = lru.oldest(list) {
            out.push((pfn.0, lru.remove(list, pfn).expect("linked")));
        }
        out
    }

    #[test]
    fn frame_lru_orders_by_timestamp_then_touch() {
        let mut lru = FrameLru::new(8, 1);
        lru.touch(L, Pfn(3), 5);
        lru.touch(L, Pfn(1), 5);
        lru.touch(L, Pfn(2), 4); // an older timestamp goes ahead of both
        lru.touch(L, Pfn(3), 5); // a re-touch at an equal time goes last
        let order: Vec<(Pfn, u64)> = lru.iter_oldest(L).collect();
        assert_eq!(order, vec![(Pfn(2), 4), (Pfn(1), 5), (Pfn(3), 5)]);
        assert_eq!(lru.len(L), 3);
        assert_eq!(lru.remove(L, Pfn(1)), Some(5));
        assert_eq!(lru.remove(L, Pfn(1)), None);
        assert!(!lru.contains(Pfn(1)));
        assert_eq!(lru.oldest(L), Some(Pfn(2)));
        lru.remove(L, Pfn(2));
        lru.remove(L, Pfn(3));
        assert!(lru.is_empty(L));
        assert_eq!(lru.oldest(L), None);
    }

    #[test]
    #[should_panic(expected = "outside the LRU")]
    fn frame_lru_rejects_out_of_range_frames() {
        FrameLru::new(4, 1).touch(L, Pfn(4), 1);
    }

    #[test]
    fn pop_order_is_lru() {
        let mut lru = FrameLru::new(32, 1);
        lru.touch(L, Pfn(10), 5);
        lru.touch(L, Pfn(20), 3);
        lru.touch(L, Pfn(30), 7);
        assert_eq!(drain(&mut lru, L), vec![(20, 3), (10, 5), (30, 7)]);
        assert_eq!(lru.oldest(L), None);
    }

    #[test]
    fn touch_moves_to_back() {
        let mut lru = FrameLru::new(4, 1);
        lru.touch(L, Pfn(1), 1);
        lru.touch(L, Pfn(2), 2);
        lru.touch(L, Pfn(1), 3);
        assert_eq!(lru.oldest(L), Some(Pfn(2)));
        assert_eq!(lru.len(L), 2);
    }

    #[test]
    fn equal_timestamps_break_by_touch_order() {
        // Three lists over one link array, each ordered on its own.
        let mut lru = FrameLru::new(9, 3);
        for list in 0..3u32 {
            for n in [2, 0, 1] {
                lru.touch(ListId(list), Pfn(u64::from(3 * list + n)), 1);
            }
        }
        assert_eq!(drain(&mut lru, ListId(2)), vec![(8, 1), (6, 1), (7, 1)]);
        assert_eq!(drain(&mut lru, ListId(0)), vec![(2, 1), (0, 1), (1, 1)]);
        assert_eq!(drain(&mut lru, ListId(1)), vec![(5, 1), (3, 1), (4, 1)]);
    }

    #[test]
    fn remove_detaches_key() {
        let mut lru = FrameLru::new(4, 2);
        lru.touch(ListId(0), Pfn(1), 1);
        lru.touch(ListId(1), Pfn(2), 2);
        assert_eq!(lru.remove(ListId(0), Pfn(1)), Some(1));
        assert_eq!(lru.remove(ListId(0), Pfn(1)), None);
        assert!(!lru.contains(Pfn(1)));
        assert!(lru.is_empty(ListId(0)));
        assert_eq!(drain(&mut lru, ListId(1)), vec![(2, 2)]);
    }

    #[test]
    fn iter_oldest_is_nondestructive_and_ordered() {
        let mut lru = FrameLru::new(4, 1);
        let list = lru.add_list();
        assert_eq!(list, ListId(1));
        lru.touch(list, Pfn(3), 30);
        lru.touch(list, Pfn(1), 10);
        lru.touch(list, Pfn(2), 20);
        let order: Vec<(Pfn, u64)> = lru.iter_oldest(list).collect();
        assert_eq!(order, vec![(Pfn(1), 10), (Pfn(2), 20), (Pfn(3), 30)]);
        assert_eq!(lru.len(list), 3, "iteration must not consume");
        assert!(lru.is_empty(L));
    }

    #[test]
    fn timestamp_query() {
        let mut lru = FrameLru::new(16, 1);
        lru.touch(L, Pfn(9), 42);
        let ts = lru.iter_oldest(L).find(|&(p, _)| p == Pfn(9));
        assert_eq!(ts, Some((Pfn(9), 42)));
        assert_eq!(lru.remove(L, Pfn(8)), None);
        assert_eq!(lru.remove(L, Pfn(9)), Some(42));
    }

    #[test]
    fn large_population_pops_sorted() {
        let mut lru = FrameLru::new(1000, 1);
        // Insert with pseudo-shuffled timestamps.
        for i in 0..1000u64 {
            lru.touch(L, Pfn(i), (i * 2_654_435_761) % 10_000);
        }
        let drained = drain(&mut lru, L);
        assert_eq!(drained.len(), 1000);
        assert!(drained.windows(2).all(|w| w[0].1 <= w[1].1), "out of order");
    }
}
