//! Bucket geometry for the Iceberg hashing scheme.

/// Geometry of an Iceberg table / Mosaic physical-memory layout.
///
/// Physical memory (or a generic table) is divided into `num_buckets`
/// buckets. Each bucket has `front_slots` front-yard slots and `back_slots`
/// backyard slots. A key hashes to **one** front-yard bucket and `d_choices`
/// backyard buckets, so its candidate-slot count — the *associativity* `h`
/// of the scheme — is `front_slots + d_choices * back_slots`.
///
/// The paper's prototype uses 56 + 6 × 8 = 104, which fits a CPFN in 7 bits.
///
/// # Example
///
/// ```
/// use mosaic_iceberg::IcebergConfig;
///
/// let cfg = IcebergConfig::paper_default(1024);
/// assert_eq!(cfg.associativity(), 104);
/// assert_eq!(cfg.cpfn_bits(), 7);
/// assert_eq!(cfg.slots_per_bucket(), 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IcebergConfig {
    num_buckets: usize,
    front_slots: usize,
    back_slots: usize,
    d_choices: usize,
}

/// Paper-default front-yard slots per bucket (§3.1).
pub const PAPER_FRONT_SLOTS: usize = 56;
/// Paper-default backyard slots per bucket (§3.1).
pub const PAPER_BACK_SLOTS: usize = 8;
/// Paper-default number of backyard choices (§3.1).
pub const PAPER_D_CHOICES: usize = 6;
/// Most backyard choices a geometry may have: a
/// [`CandidateSet`](crate::CandidateSet) holds its choices inline.
pub const MAX_D_CHOICES: usize = 8;

impl IcebergConfig {
    /// Creates a configuration with explicit geometry.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero, if `d_choices > num_buckets`
    /// (the power-of-d-choices needs `d` distinct buckets to choose among),
    /// or if `d_choices > MAX_D_CHOICES`.
    pub fn new(
        num_buckets: usize,
        front_slots: usize,
        back_slots: usize,
        d_choices: usize,
    ) -> Self {
        assert!(num_buckets > 0, "num_buckets must be positive");
        assert!(front_slots > 0, "front_slots must be positive");
        assert!(back_slots > 0, "back_slots must be positive");
        assert!(d_choices > 0, "d_choices must be positive");
        assert!(
            d_choices <= num_buckets,
            "d_choices ({d_choices}) cannot exceed num_buckets ({num_buckets})"
        );
        assert!(
            d_choices <= MAX_D_CHOICES,
            "d_choices ({d_choices}) cannot exceed {MAX_D_CHOICES}"
        );
        Self {
            num_buckets,
            front_slots,
            back_slots,
            d_choices,
        }
    }

    /// The paper's prototype geometry (56-slot front yard, 8-slot backyard,
    /// `d = 6`) with the given bucket count.
    pub fn paper_default(num_buckets: usize) -> Self {
        Self::new(
            num_buckets,
            PAPER_FRONT_SLOTS,
            PAPER_BACK_SLOTS,
            PAPER_D_CHOICES,
        )
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.num_buckets
    }

    /// Front-yard slots per bucket.
    pub fn front_slots(&self) -> usize {
        self.front_slots
    }

    /// Backyard slots per bucket.
    pub fn back_slots(&self) -> usize {
        self.back_slots
    }

    /// Number of backyard bucket choices (`d` in the power-of-d-choices).
    pub fn d_choices(&self) -> usize {
        self.d_choices
    }

    /// Total slots per bucket (front + back).
    pub fn slots_per_bucket(&self) -> usize {
        self.front_slots + self.back_slots
    }

    /// Total slots in the table (`p` in the paper's notation).
    pub fn total_slots(&self) -> usize {
        self.num_buckets * self.slots_per_bucket()
    }

    /// The associativity `h`: candidate slots per key.
    pub fn associativity(&self) -> usize {
        self.front_slots + self.d_choices * self.back_slots
    }

    /// Bits needed to encode a CPFN: `ceil(log2(h + 1))`.
    ///
    /// The `+ 1` reserves the all-ones pattern for "unmapped" (§3.1).
    pub fn cpfn_bits(&self) -> u32 {
        usize::BITS - self.associativity().leading_zeros()
    }

    /// Number of hash functions the scheme needs: one front + `d` backyard.
    pub fn hash_count(&self) -> usize {
        1 + self.d_choices
    }

    /// Splits a past-the-front candidate index into `(choice, slot)` —
    /// i.e. `(rest / back_slots, rest % back_slots)` — using shift/mask
    /// when `back_slots` is a power of two (it is for the paper shape,
    /// where back_slots = 8), keeping the probe path division-free.
    #[inline]
    pub fn back_split(&self, rest: usize) -> (usize, usize) {
        if self.back_slots.is_power_of_two() {
            let shift = self.back_slots.trailing_zeros();
            (rest >> shift, rest & (self.back_slots - 1))
        } else {
            (rest / self.back_slots, rest % self.back_slots)
        }
    }

    /// Returns a copy with a different bucket count (same per-bucket shape).
    pub fn with_num_buckets(&self, num_buckets: usize) -> Self {
        Self::new(num_buckets, self.front_slots, self.back_slots, self.d_choices)
    }
}

impl Default for IcebergConfig {
    /// The paper geometry with 1024 buckets (64 Ki slots ≈ 256 MiB of 4 KiB
    /// frames), a convenient experiment size.
    fn default() -> Self {
        Self::paper_default(1024)
    }
}

impl core::fmt::Display for IcebergConfig {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} buckets x ({} front + {} back), d = {}, h = {}",
            self.num_buckets,
            self.front_slots,
            self.back_slots,
            self.d_choices,
            self.associativity()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry() {
        let cfg = IcebergConfig::paper_default(4096);
        assert_eq!(cfg.front_slots(), 56);
        assert_eq!(cfg.back_slots(), 8);
        assert_eq!(cfg.d_choices(), 6);
        assert_eq!(cfg.associativity(), 104);
        assert_eq!(cfg.cpfn_bits(), 7);
        assert_eq!(cfg.hash_count(), 7);
        assert_eq!(cfg.slots_per_bucket(), 64);
        assert_eq!(cfg.total_slots(), 4096 * 64);
    }

    #[test]
    fn cpfn_bits_edge_cases() {
        // h = 63 -> 6 bits (64 patterns, one reserved).
        let cfg = IcebergConfig::new(16, 31, 8, 4);
        assert_eq!(cfg.associativity(), 63);
        assert_eq!(cfg.cpfn_bits(), 6);
        // h = 64 -> needs 7 bits.
        let cfg = IcebergConfig::new(16, 32, 8, 4);
        assert_eq!(cfg.cpfn_bits(), 7);
    }

    #[test]
    #[should_panic(expected = "num_buckets must be positive")]
    fn zero_buckets_panics() {
        IcebergConfig::new(0, 56, 8, 6);
    }

    #[test]
    #[should_panic(expected = "cannot exceed num_buckets")]
    fn too_many_choices_panics() {
        IcebergConfig::new(4, 56, 8, 6);
    }

    #[test]
    #[should_panic(expected = "cannot exceed 8")]
    fn choices_beyond_inline_capacity_panic() {
        IcebergConfig::new(16, 56, 8, MAX_D_CHOICES + 1);
    }

    #[test]
    fn display_mentions_geometry() {
        let s = IcebergConfig::paper_default(8).to_string();
        assert!(s.contains("56 front"));
        assert!(s.contains("h = 104"));
    }

    #[test]
    fn with_num_buckets_preserves_shape() {
        let cfg = IcebergConfig::paper_default(8).with_num_buckets(32);
        assert_eq!(cfg.num_buckets(), 32);
        assert_eq!(cfg.associativity(), 104);
    }
}
