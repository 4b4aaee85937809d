//! 3C miss classification against shadow fully-associative tag stores.
//!
//! Every miss of a real TLB instance is classified as:
//!
//! * **compulsory** — the first-ever reference to the page (at VPN
//!   granularity, shared between the vanilla and mosaic models so a
//!   common trace yields identical cold sets);
//! * **conflict** — a fully-associative LRU TLB with the same entry
//!   count would have hit: the miss is an artifact of set conflicts,
//!   exactly the class Mosaic's multi-hash placement targets (Fig. 6);
//! * **capacity** — even the fully-associative shadow missed: the
//!   working set exceeds the reach.
//!
//! The class depends only on the reference stream, the tag granularity
//! (VPN, or the MVPN of one arity) and the entry count — never on the
//! real TLB's associativity or contents. So a grid of TLB instances
//! that share one entry count shares **one** [`ClassPass`]: a single
//! first-touch map plus one shadow per granularity, turning each stream
//! position into a [`MissClass`] byte before any instance looks it up.
//! An instance reads its class only on a real miss and tallies it
//! locally in a [`ClassTally`], flushed into its attribution table in
//! bulk. [`MissClassifier`] is the same classification for one
//! standalone instance.
//!
//! # Dense ids
//!
//! Each shadow is an exact fully-associative LRU of the real entry
//! count, touched on every access so its order tracks the reference
//! stream, not the fill stream. It works on dense ids rather than
//! tags: a `(asid, vpn)` key is hashed once, to a page id minted in
//! first-seen order, and a freshly minted id *is* the first touch. The
//! page id is also the page's tag id in the VPN shadow; the page caches
//! its tag id in every MVPN shadow (hashed only on first touch). Each
//! shadow keeps its recency list intrusively in a `Vec` indexed by tag
//! id — a hit moves the id to the head, a miss pushes it there and, at
//! `entries` resident tags, evicts the tail. So a position costs one
//! hash lookup plus one O(1) list update per granularity.
//! Invalidations look their tag id up by key; ASID shootdowns walk the
//! resident list (at most `entries` ids) and drop the ids whose
//! recorded ASID matches.
//!
//! The price is memory that grows with the footprint, as the first-touch
//! set always did: per distinct page a page-map entry, a 12-byte node
//! in the VPN shadow and 4 bytes per MVPN granularity, plus a key-map
//! entry and a node per distinct MVPN tag. Nothing is freed before the
//! pass is dropped.
//!
//! Caveats (documented in `docs/OBSERVABILITY.md`): sub-entry misses on
//! a shadow-resident mosaic entry count as conflict (the
//! fully-associative TLB would have retained the filled sub-entry), and
//! invalidations drop shadow tags, so post-shootdown re-misses classify
//! as capacity rather than a dedicated coherence class.

use crate::arity::Arity;
use mosaic_hash::{FastHashMap, FastHashSet};
use mosaic_mem::{Asid, Vpn};
use mosaic_obs::{AttribCategory, AttribHandle};
use std::collections::hash_map::Entry;

/// Null recency link (list end).
const NIL: u32 = u32::MAX;

/// The `prev` link of a tag that is not resident.
const OUT: u32 = u32::MAX - 1;

/// The next dense id after `len` minted ones.
///
/// # Panics
///
/// Panics when the ids would reach the link sentinels.
fn next_id(len: usize) -> u32 {
    u32::try_from(len)
        .ok()
        .filter(|&id| id < OUT)
        .expect("more distinct tags than dense ids")
}

/// One tag id's recency links and the ASID its tag belongs to.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Toward the head (more recent); [`NIL`] at the head, [`OUT`] when
    /// the tag is not resident.
    prev: u32,
    /// Toward the tail (less recent); [`NIL`] at the tail.
    next: u32,
    asid: Asid,
}

/// An exact fully-associative LRU tag store of `entries` tags over
/// dense tag ids.
#[derive(Debug, Clone)]
struct DenseLru {
    entries: usize,
    /// Resident tags.
    len: usize,
    /// Tag id per `(asid, tag)` ever interned.
    ids: FastHashMap<(Asid, u64), u32>,
    /// Per tag id, indexed by id.
    nodes: Vec<Node>,
    /// Most recently used resident id ([`NIL`] when empty).
    head: u32,
    /// Least recently used resident id — the eviction victim.
    tail: u32,
}

impl DenseLru {
    /// An empty store of `entries` tags.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    fn new(entries: usize) -> Self {
        assert!(entries > 0, "entries must be positive");
        Self {
            entries,
            len: 0,
            ids: FastHashMap::default(),
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// A new, non-resident tag id of `asid` that no key maps to: for
    /// an owner that keeps its own key-to-id map.
    fn mint(&mut self, asid: Asid) -> u32 {
        let id = next_id(self.nodes.len());
        self.nodes.push(Node {
            prev: OUT,
            next: NIL,
            asid,
        });
        id
    }

    /// The id of `(asid, tag)`, minted (not resident) on first sight.
    fn intern(&mut self, asid: Asid, tag: u64) -> u32 {
        let next = next_id(self.nodes.len());
        let id = *self.ids.entry((asid, tag)).or_insert(next);
        if id == next {
            self.mint(asid);
        }
        id
    }

    fn unlink(&mut self, id: u32) {
        let Node { prev, next, .. } = self.nodes[id as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, id: u32) {
        let head = self.head;
        self.nodes[id as usize].prev = NIL;
        self.nodes[id as usize].next = head;
        match head {
            NIL => self.tail = id,
            h => self.nodes[h as usize].prev = id,
        }
        self.head = id;
    }

    /// Touches tag `id`, returning whether it was resident; makes it
    /// the most recent either way, evicting the least recent tag when
    /// a miss finds the store full.
    #[inline]
    fn touch(&mut self, id: u32) -> bool {
        if self.nodes[id as usize].prev != OUT {
            if self.head != id {
                self.unlink(id);
                self.push_front(id);
            }
            return true;
        }
        if self.len == self.entries {
            let victim = self.tail;
            self.unlink(victim);
            self.nodes[victim as usize].prev = OUT;
        } else {
            self.len += 1;
        }
        self.push_front(id);
        false
    }

    /// Drops tag `id` if resident.
    fn remove(&mut self, id: u32) {
        if self.nodes[id as usize].prev != OUT {
            self.unlink(id);
            self.nodes[id as usize].prev = OUT;
            self.len -= 1;
        }
    }

    /// Drops `(asid, tag)` if resident.
    fn invalidate(&mut self, asid: Asid, tag: u64) {
        if let Some(&id) = self.ids.get(&(asid, tag)) {
            self.remove(id);
        }
    }

    /// Drops every resident tag of `asid`.
    fn flush_asid(&mut self, asid: Asid) {
        let mut id = self.head;
        while id != NIL {
            let node = self.nodes[id as usize];
            if node.asid == asid {
                self.remove(id);
            }
            id = node.next;
        }
    }

    /// Drops every resident tag.
    fn flush(&mut self) {
        let mut id = self.head;
        while id != NIL {
            let node = &mut self.nodes[id as usize];
            node.prev = OUT;
            id = node.next;
        }
        (self.head, self.tail, self.len) = (NIL, NIL, 0);
    }
}

/// The classification of one stream position: a first-touch bit plus
/// one shadow-hit bit per tag granularity of the [`ClassPass`] that
/// produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissClass(u8);

impl MissClass {
    /// Granularities one class byte can carry (bit 0 is first touch).
    const MAX_GRANULARITIES: usize = 7;

    /// Whether the position is the first-ever reference to its page.
    fn is_first_touch(self) -> bool {
        self.0 & 1 != 0
    }

    /// Whether granularity `g`'s shadow held the page's tag.
    fn shadow_hit(self, g: usize) -> bool {
        self.0 & (2 << g) != 0
    }

    /// The class charged to an instance with tag granularity `g` that
    /// misses at this position.
    #[inline]
    pub fn category(self, g: usize) -> AttribCategory {
        if self.is_first_touch() {
            AttribCategory::Compulsory
        } else if self.shadow_hit(g) {
            AttribCategory::Conflict
        } else {
            AttribCategory::Capacity
        }
    }
}

/// One shared classification pass over a reference stream, for every
/// TLB instance of one entry count.
///
/// Granularity 0 is the VPN (vanilla tags); granularity `1 + i` is the
/// MVPN of `arities[i]` (mosaic tags), matching the OS model's arity
/// indexing.
#[derive(Debug, Clone)]
pub struct ClassPass {
    /// Page id per `(asid, vpn)` ever referenced. Never trimmed —
    /// compulsory means first-ever in the run, surviving flushes and
    /// shootdowns. A page id is also the page's tag id in `vpns`.
    pages: FastHashMap<(Asid, u64), u32>,
    /// The VPN shadow, minting one tag id per page in lockstep with
    /// `pages` (its own key map stays empty).
    vpns: DenseLru,
    /// Each page's tag id in every MVPN shadow, indexed
    /// `page * mvpns.len() + i`.
    page_tags: Vec<u32>,
    /// `(arity, shadow)` per MVPN granularity.
    mvpns: Vec<(Arity, DenseLru)>,
}

impl ClassPass {
    /// A pass with shadows of `entries` tags (the real TLBs' entry
    /// count) at the VPN and at each of `arities`' MVPNs.
    ///
    /// # Panics
    ///
    /// Panics on zero `entries`, or on more than six arities: the VPN
    /// plus each arity must fit the seven shadow-hit bits of a class
    /// byte.
    pub fn new(entries: usize, arities: &[Arity]) -> Self {
        assert!(
            arities.len() < MissClass::MAX_GRANULARITIES,
            "{} arities exceed the {} granularities a class byte carries",
            arities.len(),
            MissClass::MAX_GRANULARITIES,
        );
        Self {
            pages: FastHashMap::default(),
            vpns: DenseLru::new(entries),
            page_tags: Vec::new(),
            mvpns: arities
                .iter()
                .map(|&a| (a, DenseLru::new(entries)))
                .collect(),
        }
    }

    /// The granularity index of a TLB instance: `None` for vanilla
    /// (VPN tags), `Some(i)` for the mosaic TLB at `arities[i]`.
    pub fn granularity(arity_idx: Option<usize>) -> usize {
        arity_idx.map_or(0, |i| i + 1)
    }

    /// Classifies the next stream position, touching every shadow.
    #[inline]
    pub fn classify(&mut self, asid: Asid, vpn: Vpn) -> MissClass {
        let (page, first) = match self.pages.entry((asid, vpn.0)) {
            Entry::Occupied(e) => (*e.get(), false),
            Entry::Vacant(e) => {
                let page = *e.insert(self.vpns.mint(asid));
                for (arity, shadow) in &mut self.mvpns {
                    let tag = shadow.intern(asid, arity.mvpn_of(vpn).0);
                    self.page_tags.push(tag);
                }
                (page, true)
            }
        };
        let mut bits = u8::from(first) | u8::from(self.vpns.touch(page)) << 1;
        let n = self.mvpns.len();
        let tags = &self.page_tags[page as usize * n..][..n];
        for (i, ((_, shadow), &tag)) in self.mvpns.iter_mut().zip(tags).enumerate() {
            if shadow.touch(tag) {
                bits |= 4 << i;
            }
        }
        MissClass(bits)
    }

    /// Drops the tag covering `(asid, vpn)` from every shadow: mirrors a
    /// whole-entry invalidation (`VanillaTlb::invalidate`,
    /// `MosaicTlb::invalidate_entry`) applied to every instance at this
    /// stream position.
    pub fn invalidate(&mut self, asid: Asid, vpn: Vpn) {
        if let Some(&page) = self.pages.get(&(asid, vpn.0)) {
            self.vpns.remove(page);
        }
        for (arity, shadow) in &mut self.mvpns {
            shadow.invalidate(asid, arity.mvpn_of(vpn).0);
        }
    }

    /// Mirrors an ASID shootdown on every instance.
    pub fn flush_asid(&mut self, asid: Asid) {
        self.vpns.flush_asid(asid);
        for (_, shadow) in &mut self.mvpns {
            shadow.flush_asid(asid);
        }
    }

    /// Mirrors a full flush on every instance.
    pub fn flush(&mut self) {
        self.vpns.flush();
        for (_, shadow) in &mut self.mvpns {
            shadow.flush();
        }
    }
}

/// One instance's 3C counts awaiting a bulk flush into its attribution
/// table (with a disabled sink, flushes charge nothing).
#[derive(Debug, Clone, Default)]
pub struct ClassTally {
    counts: [u64; 3],
    sink: AttribHandle,
}

impl ClassTally {
    /// A tally flushing into `sink`.
    pub fn new(sink: AttribHandle) -> Self {
        Self {
            counts: [0; 3],
            sink,
        }
    }

    /// Counts one miss of `category` (a TLB 3C class).
    #[inline]
    pub fn record(&mut self, category: AttribCategory) {
        self.counts[category as usize] += 1;
    }

    /// Charges the pending counts to `asid` and zeroes them.
    pub fn flush(&mut self, asid: Asid) {
        for cat in [
            AttribCategory::Compulsory,
            AttribCategory::Capacity,
            AttribCategory::Conflict,
        ] {
            let n = std::mem::take(&mut self.counts[cat as usize]);
            self.sink.charge_n(cat, asid.0, asid.0, n);
        }
    }
}

/// Shadow-tag 3C classifier for one standalone TLB instance, charging
/// each miss straight into its sink.
#[derive(Debug, Clone)]
pub struct MissClassifier {
    /// Every `(asid, seen_page)` ever observed.
    seen: FastHashSet<(Asid, u64)>,
    shadow: DenseLru,
    sink: AttribHandle,
}

impl MissClassifier {
    /// A classifier whose shadow has `entries` tags (the real TLB's
    /// entry count), charging into `sink`.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: usize, sink: AttribHandle) -> Self {
        Self {
            seen: FastHashSet::default(),
            shadow: DenseLru::new(entries),
            sink,
        }
    }

    /// Observes one TLB access *after* the real lookup resolved.
    ///
    /// `shadow_page` is the tag granularity of the model (VPN for
    /// vanilla, MVPN for mosaic); `seen_page` is always the VPN so both
    /// models agree on the cold set. Returns the class charged, or
    /// `None` on a hit.
    pub fn observe(
        &mut self,
        asid: Asid,
        shadow_page: u64,
        seen_page: u64,
        hit: bool,
    ) -> Option<AttribCategory> {
        let first = self.seen.insert((asid, seen_page));
        let tag = self.shadow.intern(asid, shadow_page);
        let shadow_hit = self.shadow.touch(tag);
        if hit {
            return None;
        }
        let class = MissClass(u8::from(first) | (u8::from(shadow_hit) << 1)).category(0);
        self.sink.charge(class, asid.0, asid.0);
        Some(class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cls(entries: usize) -> MissClassifier {
        MissClassifier::new(entries, AttribHandle::noop())
    }

    const A: Asid = Asid(1);

    #[test]
    fn first_touch_is_compulsory() {
        let mut c = cls(4);
        assert_eq!(c.observe(A, 7, 7, false), Some(AttribCategory::Compulsory));
    }

    #[test]
    fn shadow_hit_miss_is_conflict() {
        let mut c = cls(4);
        c.observe(A, 7, 7, false); // cold
        c.observe(A, 8, 8, true); // unrelated hit keeps 7 warm
        // 7 re-misses while the 4-entry shadow still holds it.
        assert_eq!(c.observe(A, 7, 7, false), Some(AttribCategory::Conflict));
    }

    #[test]
    fn shadow_miss_is_capacity() {
        let mut c = cls(2);
        for p in 0..4u64 {
            c.observe(A, p, p, false); // cold sweep overflows the shadow
        }
        // Page 0 fell out of the 2-entry shadow: capacity.
        assert_eq!(c.observe(A, 0, 0, false), Some(AttribCategory::Capacity));
    }

    #[test]
    fn hits_charge_nothing_but_refresh_lru() {
        let mut c = cls(2);
        c.observe(A, 0, 0, false);
        c.observe(A, 1, 1, false);
        assert_eq!(c.observe(A, 0, 0, true), None);
        // 1 is now LRU; inserting 2 evicts it, not 0.
        c.observe(A, 2, 2, false);
        assert_eq!(c.observe(A, 0, 0, false), Some(AttribCategory::Conflict));
        assert_eq!(c.observe(A, 1, 1, false), Some(AttribCategory::Capacity));
    }

    #[test]
    fn classes_partition_the_misses() {
        let obs = mosaic_obs::ObsHandle::enabled();
        obs.set_attrib(true);
        let mut c = MissClassifier::new(3, obs.attrib("tlb.test"));
        let trace = [0u64, 1, 2, 3, 0, 1, 2, 3, 0, 5, 1];
        let mut misses = 0;
        for &p in &trace {
            if c.observe(A, p, p, false).is_some() {
                misses += 1;
            }
        }
        assert_eq!(obs.attrib_table("tlb.test").total(), misses);
    }

    #[test]
    fn charges_flow_to_the_sink() {
        let obs = mosaic_obs::ObsHandle::enabled();
        obs.set_attrib(true);
        let mut c = MissClassifier::new(4, obs.attrib("tlb.test"));
        c.observe(A, 1, 1, false);
        c.observe(A, 1, 1, false);
        let t = obs.attrib_table("tlb.test");
        assert_eq!(t.category_total(AttribCategory::Compulsory), 1);
        assert_eq!(t.category_total(AttribCategory::Conflict), 1);
    }

    #[test]
    fn pass_classifies_each_granularity_independently() {
        // 2-entry shadows at VPN and at arity 4's MVPN.
        let mut p = ClassPass::new(2, &[Arity::new(4)]);
        for v in [0u64, 1, 2] {
            p.classify(A, Vpn(v));
        }
        // VPN 0 fell out of the VPN shadow (0, 1, 2 over 2 tags), but
        // all three share MVPN 0, which stayed resident.
        let c = p.classify(A, Vpn(0));
        assert!(!c.is_first_touch());
        assert_eq!(c.category(0), AttribCategory::Capacity);
        assert_eq!(
            c.category(ClassPass::granularity(Some(0))),
            AttribCategory::Conflict
        );
        assert_eq!(
            p.classify(A, Vpn(9)).category(1),
            AttribCategory::Compulsory
        );
    }

    #[test]
    fn flush_asid_drops_only_that_asid() {
        let mut p = ClassPass::new(8, &[]);
        p.classify(Asid(1), Vpn(0));
        p.classify(Asid(2), Vpn(0));
        p.flush_asid(Asid(1));
        // ASID 1's tag is gone (capacity, since it was seen before)...
        assert_eq!(
            p.classify(Asid(1), Vpn(0)).category(0),
            AttribCategory::Capacity
        );
        // ...but ASID 2's survives (conflict-class re-miss).
        assert_eq!(
            p.classify(Asid(2), Vpn(0)).category(0),
            AttribCategory::Conflict
        );
    }

    #[test]
    fn tally_flushes_in_bulk() {
        let obs = mosaic_obs::ObsHandle::enabled();
        obs.set_attrib(true);
        let mut t = ClassTally::new(obs.attrib("tlb.t"));
        t.record(AttribCategory::Conflict);
        t.record(AttribCategory::Conflict);
        t.record(AttribCategory::Compulsory);
        assert!(obs.attrib_table("tlb.t").is_empty(), "nothing until flush");
        t.flush(A);
        t.flush(A); // a second flush charges nothing new
        let table = obs.attrib_table("tlb.t");
        assert_eq!(table.category_total(AttribCategory::Conflict), 2);
        assert_eq!(table.category_total(AttribCategory::Compulsory), 1);
        assert_eq!(table.total(), 3);
    }
}
