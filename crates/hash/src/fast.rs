//! The workspace's fast hasher for small fixed-size keys.
//!
//! Page keys, frame numbers and TLB tags are small integers derived from
//! VPNs and ASIDs, not attacker-controlled input, so the DoS resistance of
//! std's default SipHash buys nothing while its cost showed up as the
//! hottest function in whole-grid and memory-manager profiles.
//! [`FastHasher`] is a multiply-fold: one mix per written word and a
//! splitmix-style finish, so both the low bits (bucket index) and the high
//! bits (control bytes) of the result depend on every input bit.
//!
//! The hasher is unkeyed, so map iteration order is a function of the
//! map's contents and history. Code whose output must not depend on that
//! order still has to sort, exactly as with a randomly keyed map.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// Multiply-fold hasher for small fixed-size keys. See the
/// [module docs](self).
///
/// # Example
///
/// ```
/// use mosaic_hash::FastHashMap;
///
/// let mut m: FastHashMap<(u16, u64), u32> = FastHashMap::default();
/// m.insert((1, 42), 7);
/// assert_eq!(m.get(&(1, 42)), Some(&7));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn mix(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        let mut z = self.0;
        z ^= z >> 31;
        z = z.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        z ^ (z >> 32)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }
    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.mix(u64::from(i));
    }
    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.mix(u64::from(i));
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(u64::from(i));
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }
}

/// [`BuildHasher`] for [`FastHasher`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHashBuilder;

impl BuildHasher for FastHashBuilder {
    type Hasher = FastHasher;
    #[inline]
    fn build_hasher(&self) -> FastHasher {
        FastHasher::default()
    }
}

/// A `HashMap` keyed with [`FastHasher`].
pub type FastHashMap<K, V> = HashMap<K, V, FastHashBuilder>;

/// A `HashSet` keyed with [`FastHasher`].
pub type FastHashSet<K> = HashSet<K, FastHashBuilder>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: T) -> u64 {
        FastHashBuilder.hash_one(v)
    }

    #[test]
    fn deterministic_across_builders() {
        assert_eq!(hash_of((3u16, 99u64)), hash_of((3u16, 99u64)));
    }

    #[test]
    fn field_order_and_values_matter() {
        assert_ne!(hash_of((1u16, 2u64)), hash_of((2u16, 1u64)));
        assert_ne!(hash_of(0u64), hash_of(1u64));
    }

    #[test]
    fn sequential_keys_spread_over_low_bits() {
        // Dense VPN runs must not collide in a small table's bucket bits.
        let mut buckets = [0u32; 64];
        for v in 0..64_000u64 {
            buckets[(hash_of(v) & 63) as usize] += 1;
        }
        assert!(
            buckets.iter().all(|&n| (700..1300).contains(&n)),
            "{buckets:?}"
        );
    }
}
