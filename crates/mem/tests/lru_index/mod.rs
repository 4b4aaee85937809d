//! The reference model of an exact LRU for the property tests: a set of
//! keys ordered by the timestamp of their most recent touch, ties broken
//! by touch order (the earlier touch is older), kept as a `BTreeMap` by
//! age plus a back-pointer map. Slow and obviously right; the frame-
//! indexed [`FrameLru`](mosaic_mem::lru::FrameLru) lists are checked
//! against it.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// An LRU index: a set of keys ordered by the timestamp of their most
/// recent [`touch`](LruIndex::touch).
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
}
