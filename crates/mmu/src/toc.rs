//! The Table of Contents (ToC): the payload of a mosaic TLB entry (§2.1).
//!
//! A ToC is a run of `arity` CPFNs, one per base page of the mosaic page.
//! Sub-entries are individually valid: an unmapped sub-page holds the
//! all-ones sentinel, and the OS can invalidate one sub-page without
//! discarding the rest of the entry (§3.1).

use crate::arity::Arity;
use mosaic_mem::Cpfn;

/// A run of `arity` CPFNs with per-sub-page validity.
///
/// # Example
///
/// ```
/// use mosaic_mmu::{Arity, Toc};
/// use mosaic_mem::Cpfn;
///
/// let mut toc = Toc::new(Arity::new(4), Cpfn::UNMAPPED_7BIT);
/// assert_eq!(toc.valid_count(), 0);
/// toc.set(2, Cpfn(5));
/// assert_eq!(toc.get(2), Some(Cpfn(5)));
/// assert_eq!(toc.get(0), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Toc {
    cpfns: Vec<Cpfn>,
    unmapped: Cpfn,
}

impl Toc {
    /// Creates an all-unmapped ToC with the given sentinel.
    pub fn new(arity: Arity, unmapped: Cpfn) -> Self {
        Self {
            cpfns: vec![unmapped; arity.get()],
            unmapped,
        }
    }

    /// Number of sub-entries (the arity).
    pub fn len(&self) -> usize {
        self.cpfns.len()
    }

    /// Whether the ToC has no sub-entries (never true for a valid arity).
    pub fn is_empty(&self) -> bool {
        self.cpfns.is_empty()
    }

    /// The CPFN at `offset`, or `None` if that sub-page is unmapped.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is out of range.
    pub fn get(&self, offset: usize) -> Option<Cpfn> {
        let c = self.cpfns[offset];
        (c != self.unmapped).then_some(c)
    }

    /// Whether the sub-page at `offset` is mapped.
    pub fn is_valid(&self, offset: usize) -> bool {
        self.get(offset).is_some()
    }

    /// Sets the CPFN at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is out of range or `cpfn` equals the sentinel
    /// (use [`invalidate`](Self::invalidate) for that).
    pub fn set(&mut self, offset: usize, cpfn: Cpfn) {
        assert_ne!(cpfn, self.unmapped, "use invalidate() to unmap");
        self.cpfns[offset] = cpfn;
    }

    /// Invalidates the sub-page at `offset` (sub-page invalidation, §3.1).
    ///
    /// # Panics
    ///
    /// Panics if `offset` is out of range.
    pub fn invalidate(&mut self, offset: usize) {
        self.cpfns[offset] = self.unmapped;
    }

    /// Number of mapped sub-entries.
    pub fn valid_count(&self) -> usize {
        self.cpfns.iter().filter(|&&c| c != self.unmapped).count()
    }

    /// Whether every sub-entry is unmapped.
    pub fn is_all_unmapped(&self) -> bool {
        self.valid_count() == 0
    }

    /// Iterates `(offset, Option<Cpfn>)` over the sub-entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Option<Cpfn>)> + '_ {
        self.cpfns
            .iter()
            .enumerate()
            .map(move |(i, &c)| (i, (c != self.unmapped).then_some(c)))
    }

    /// The raw sub-entries in offset order, unmapped ones holding the
    /// [`unmapped`](Self::unmapped) sentinel (what a TLB fill copies).
    pub(crate) fn as_slice(&self) -> &[Cpfn] {
        &self.cpfns
    }

    /// The unmapped sentinel this ToC was created with.
    pub(crate) fn unmapped(&self) -> Cpfn {
        self.unmapped
    }

    /// Overwrites `self` with `other`'s contents, reusing the existing
    /// buffer when it is large enough — two ToCs of the same arity
    /// never reallocate (the batched replay's walk memo refills its
    /// slots this way).
    pub fn copy_from(&mut self, other: &Toc) {
        self.cpfns.clone_from(&other.cpfns);
        self.unmapped = other.unmapped;
    }

    /// The storage width of this ToC in bits, given a CPFN width.
    ///
    /// With arity 4 and 7-bit CPFNs this is 28 bits — smaller than the
    /// 36-bit PFN a conventional x86 TLB entry stores (§3.1).
    pub fn bits(&self, cpfn_bits: u32) -> u32 {
        self.cpfns.len() as u32 * cpfn_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toc() -> Toc {
        Toc::new(Arity::new(4), Cpfn::UNMAPPED_7BIT)
    }

    #[test]
    fn starts_all_unmapped() {
        let t = toc();
        assert_eq!(t.len(), 4);
        assert!(t.is_all_unmapped());
        for i in 0..4 {
            assert_eq!(t.get(i), None);
            assert!(!t.is_valid(i));
        }
    }

    #[test]
    fn set_get_invalidate() {
        let mut t = toc();
        t.set(1, Cpfn(0b011_0111));
        assert!(t.is_valid(1));
        assert_eq!(t.valid_count(), 1);
        t.invalidate(1);
        assert_eq!(t.get(1), None);
        assert!(t.is_all_unmapped());
    }

    #[test]
    fn iter_reports_validity() {
        let mut t = toc();
        t.set(0, Cpfn(3));
        t.set(3, Cpfn(9));
        let v: Vec<_> = t.iter().collect();
        assert_eq!(v[0], (0, Some(Cpfn(3))));
        assert_eq!(v[1], (1, None));
        assert_eq!(v[3], (3, Some(Cpfn(9))));
    }

    #[test]
    #[should_panic(expected = "use invalidate")]
    fn setting_sentinel_panics() {
        toc().set(0, Cpfn::UNMAPPED_7BIT);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_range_offset_panics() {
        toc().get(4);
    }

    #[test]
    fn paper_toc_width() {
        // Arity 4 × 7-bit CPFNs = 28 bits < 36-bit PFN (§3.1).
        let t = toc();
        assert_eq!(t.bits(7), 28);
        assert!(t.bits(7) < 36);
        // Arity 64 would be 448 bits — the "very wide TLB entries" caveat.
        let wide = Toc::new(Arity::new(64), Cpfn::UNMAPPED_7BIT);
        assert_eq!(wide.bits(7), 448);
    }
}
