//! Candidate-set computation: where a key is allowed to live.
//!
//! This is the heart of Mosaic's low-associativity mapping. Given a key
//! (for page allocation, a packed `(ASID, VPN)` pair), hash function 0
//! selects the single front-yard bucket and hash functions `1..=d` select
//! the backyard candidates. The functions here are *pure* — the hash table
//! in this crate and the frame allocator in `mosaic-mem` both build on them,
//! guaranteeing that the OS allocator and the (simulated) TLB hardware agree
//! on every key's candidate set.

use crate::config::{IcebergConfig, MAX_D_CHOICES};
use mosaic_hash::HashFamily;
use std::ops::Deref;

/// Which yard a slot belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Yard {
    /// The large per-bucket area tried first (56 slots in the paper).
    Front,
    /// The small overflow area filled by power-of-d-choices (8 slots).
    Back,
}

/// A concrete slot position within the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotRef {
    /// Yard the slot is in.
    pub yard: Yard,
    /// Bucket index within the table.
    pub bucket: usize,
    /// Slot index within that bucket's yard.
    pub slot: usize,
}

/// The candidate buckets for one key: one front-yard bucket plus `d`
/// backyard buckets (duplicates possible — the scheme is robust to hash
/// collisions among the `d` choices, §2.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CandidateSet {
    /// The front-yard bucket (hash function 0).
    pub front_bucket: usize,
    /// The backyard buckets (hash functions `1..=d`), in choice order.
    /// `back_buckets[i]` corresponds to backyard-choice index `i` in the
    /// CPFN encoding.
    pub back_buckets: BackBuckets,
}

/// A candidate set's `d` backyard buckets, held inline so computing a
/// candidate set allocates nothing; reads as a slice in choice order.
/// Entries past `len` stay zero, so the derived comparisons and hash
/// see only the choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BackBuckets {
    len: usize,
    buckets: [usize; MAX_D_CHOICES],
}

impl Deref for BackBuckets {
    type Target = [usize];

    #[inline]
    fn deref(&self) -> &[usize] {
        &self.buckets[..self.len]
    }
}

impl CandidateSet {
    /// Computes the candidate set for `key` under `cfg` using `family`.
    ///
    /// # Panics
    ///
    /// Panics if `family.count() < cfg.hash_count()`.
    pub fn compute<F: HashFamily>(family: &F, cfg: &IcebergConfig, key: u64) -> Self {
        assert!(
            family.count() >= cfg.hash_count(),
            "hash family has {} functions but the scheme needs {}",
            family.count(),
            cfg.hash_count()
        );
        let n = cfg.num_buckets();
        let front_bucket = family.hash_to(key, 0, n);
        let d = cfg.d_choices();
        let mut back_buckets = BackBuckets {
            len: d,
            buckets: [0; MAX_D_CHOICES],
        };
        for (i, b) in back_buckets.buckets[..d].iter_mut().enumerate() {
            *b = family.hash_to(key, i + 1, n);
        }
        Self {
            front_bucket,
            back_buckets,
        }
    }

    /// Number of backyard choices.
    pub fn d(&self) -> usize {
        self.back_buckets.len()
    }

    /// Iterates over every candidate slot in canonical (CPFN-encoding)
    /// order: front-yard slots `0..front_slots`, then backyard choice 0's
    /// slots, choice 1's slots, and so on.
    pub fn slots(&self, cfg: &IcebergConfig) -> impl Iterator<Item = SlotRef> + '_ {
        let front_slots = cfg.front_slots();
        let back_slots = cfg.back_slots();
        let front_bucket = self.front_bucket;
        let front = (0..front_slots).map(move |slot| SlotRef {
            yard: Yard::Front,
            bucket: front_bucket,
            slot,
        });
        let back = self.back_buckets.iter().flat_map(move |&bucket| {
            (0..back_slots).map(move |slot| SlotRef {
                yard: Yard::Back,
                bucket,
                slot,
            })
        });
        front.chain(back)
    }

    /// Returns the slot for a given *candidate index* in `0..h`
    /// (the value a CPFN encodes, before the unmapped sentinel).
    ///
    /// Index `0..front_slots` maps to the front yard; the remainder maps to
    /// backyard choice `(idx - front_slots) / back_slots`, slot
    /// `(idx - front_slots) % back_slots`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= cfg.associativity()`.
    pub fn slot_for_index(&self, cfg: &IcebergConfig, index: usize) -> SlotRef {
        assert!(
            index < cfg.associativity(),
            "candidate index {index} out of range (h = {})",
            cfg.associativity()
        );
        if index < cfg.front_slots() {
            SlotRef {
                yard: Yard::Front,
                bucket: self.front_bucket,
                slot: index,
            }
        } else {
            let rest = index - cfg.front_slots();
            let (choice, slot) = cfg.back_split(rest);
            SlotRef {
                yard: Yard::Back,
                bucket: self.back_buckets[choice],
                slot,
            }
        }
    }

    /// Inverse of [`slot_for_index`](Self::slot_for_index): the candidate
    /// index of a slot, if the slot is in this candidate set.
    ///
    /// When backyard choices collide (two choice indices select the same
    /// bucket), the lowest matching choice index is returned.
    pub fn index_of_slot(&self, cfg: &IcebergConfig, slot: SlotRef) -> Option<usize> {
        match slot.yard {
            Yard::Front => {
                (slot.bucket == self.front_bucket && slot.slot < cfg.front_slots())
                    .then_some(slot.slot)
            }
            Yard::Back => {
                if slot.slot >= cfg.back_slots() {
                    return None;
                }
                self.back_buckets
                    .iter()
                    .position(|&b| b == slot.bucket)
                    .map(|choice| cfg.front_slots() + choice * cfg.back_slots() + slot.slot)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_hash::XxFamily;

    fn setup() -> (IcebergConfig, XxFamily) {
        let cfg = IcebergConfig::paper_default(128);
        let family = XxFamily::new(cfg.hash_count(), 99);
        (cfg, family)
    }

    #[test]
    fn candidate_count_matches_associativity() {
        let (cfg, family) = setup();
        let cands = CandidateSet::compute(&family, &cfg, 12345);
        assert_eq!(cands.slots(&cfg).count(), cfg.associativity());
        assert_eq!(cands.d(), 6);
    }

    #[test]
    fn deterministic_per_key() {
        let (cfg, family) = setup();
        assert_eq!(
            CandidateSet::compute(&family, &cfg, 7),
            CandidateSet::compute(&family, &cfg, 7)
        );
    }

    #[test]
    fn slots_within_bounds() {
        let (cfg, family) = setup();
        for key in 0..500u64 {
            let cands = CandidateSet::compute(&family, &cfg, key);
            for s in cands.slots(&cfg) {
                assert!(s.bucket < cfg.num_buckets());
                match s.yard {
                    Yard::Front => assert!(s.slot < cfg.front_slots()),
                    Yard::Back => assert!(s.slot < cfg.back_slots()),
                }
            }
        }
    }

    #[test]
    fn index_round_trip() {
        let (cfg, family) = setup();
        let cands = CandidateSet::compute(&family, &cfg, 424242);
        for idx in 0..cfg.associativity() {
            let slot = cands.slot_for_index(&cfg, idx);
            let back = cands
                .index_of_slot(&cfg, slot)
                .expect("slot must be a candidate");
            // With colliding backyard choices the round trip may land on an
            // earlier choice index that denotes the same physical slot.
            assert_eq!(cands.slot_for_index(&cfg, back), slot);
        }
    }

    #[test]
    fn canonical_order_matches_slot_for_index() {
        let (cfg, family) = setup();
        let cands = CandidateSet::compute(&family, &cfg, 31337);
        for (idx, slot) in cands.slots(&cfg).enumerate() {
            assert_eq!(slot, cands.slot_for_index(&cfg, idx));
        }
    }

    #[test]
    fn foreign_slot_has_no_index() {
        let (cfg, family) = setup();
        let cands = CandidateSet::compute(&family, &cfg, 1);
        // A front-yard slot in a different bucket is not a candidate.
        let foreign = SlotRef {
            yard: Yard::Front,
            bucket: (cands.front_bucket + 1) % cfg.num_buckets(),
            slot: 0,
        };
        assert_eq!(cands.index_of_slot(&cfg, foreign), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_beyond_h_panics() {
        let (cfg, family) = setup();
        let cands = CandidateSet::compute(&family, &cfg, 1);
        cands.slot_for_index(&cfg, cfg.associativity());
    }

    #[test]
    #[should_panic(expected = "hash family has")]
    fn small_family_panics() {
        let cfg = IcebergConfig::paper_default(16);
        let family = XxFamily::new(2, 0); // needs 7
        CandidateSet::compute(&family, &cfg, 0);
    }

    #[test]
    fn front_bucket_spread() {
        // Front buckets of sequential keys should cover the bucket space.
        let (cfg, family) = setup();
        let mut seen = vec![false; cfg.num_buckets()];
        for key in 0..4000u64 {
            seen[CandidateSet::compute(&family, &cfg, key).front_bucket] = true;
        }
        let covered = seen.iter().filter(|&&s| s).count();
        assert!(covered > cfg.num_buckets() * 9 / 10);
    }
}
