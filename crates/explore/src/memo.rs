//! Sharded concurrent estimate memo shared across work-stealing workers.
//!
//! The lattice search memoizes flexibility estimates by *relevant
//! submask* (the allocation mask restricted to units that can influence
//! the estimate). [`ShardedMemo`] is the one memo of a scan: every walk,
//! the sequential prefix walk and each parallel subtree alike, looks its
//! estimates up here, so an estimate any worker materialized is never
//! recomputed. It is a fixed array of mutex-striped hash maps, with the
//! stripe chosen by mixing the mask words, so concurrent workers rarely
//! contend on the same lock.
//!
//! Determinism: the memo caches a **pure function** of the key
//! (estimates depend only on the relevant submask), so a cross-worker
//! hit returns byte-identical data to what the local materialization
//! would have produced. Timing changes *which* worker pays the
//! materialization cost, never the cached value, and never the final key
//! set — the property suite in `tests/steal.rs` hammers this from many
//! threads and then compares against a sequential reference memo.

use flexplore_spec::UnitMask;
use std::collections::HashMap;
use std::sync::Mutex;

/// Number of independently locked stripes. 64 keeps the probability of
/// two of ≤16 workers colliding on a stripe low while the whole array
/// stays a few cache lines of mutexes.
const SHARDS: usize = 64;

/// A concurrent map from [`UnitMask`] keys to cached values, lock-striped
/// by a mix of the mask words.
///
/// The API is deliberately small: `get` clones the cached value out (so
/// no lock is held while the caller works), and
/// [`insert_if_absent`](Self::insert_if_absent) keeps the first value
/// written for a key — with pure cached functions both racers compute
/// identical values, so "first writer wins" is just the cheapest
/// tiebreak.
#[derive(Debug)]
pub struct ShardedMemo<V> {
    shards: Vec<Mutex<HashMap<UnitMask, V>>>,
}

impl<V: Clone> ShardedMemo<V> {
    /// Creates an empty memo.
    #[must_use]
    pub fn new() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, key: &UnitMask) -> &Mutex<HashMap<UnitMask, V>> {
        // Mix all mask words so keys differing only in high units still
        // spread across stripes; the multiplier is the SplitMix64 one.
        let mut h: u64 = 0x9e37_79b9_7f4a_7c15;
        for word in key.into_words() {
            h = (h ^ word).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            h ^= h >> 31;
        }
        &self.shards[(h % SHARDS as u64) as usize]
    }

    /// Returns a clone of the cached value for `key`, if present.
    #[must_use]
    pub fn get(&self, key: &UnitMask) -> Option<V> {
        self.shard(key)
            .lock()
            .expect("memo shard poisoned")
            .get(key)
            .cloned()
    }

    /// Caches `value` for `key` unless some worker already did; returns
    /// `true` when this call inserted.
    pub fn insert_if_absent(&self, key: UnitMask, value: V) -> bool {
        use std::collections::hash_map::Entry;
        let mut shard = self.shard(&key).lock().expect("memo shard poisoned");
        match shard.entry(key) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(value);
                true
            }
        }
    }

    /// Total number of cached keys across all stripes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("memo shard poisoned").len())
            .sum()
    }

    /// `true` when no key is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains the memo into one ordinary map (test/diagnostic helper for
    /// comparing against a sequential reference memo).
    #[must_use]
    pub fn snapshot(&self) -> HashMap<UnitMask, V> {
        let mut out = HashMap::new();
        for shard in &self.shards {
            for (k, v) in shard.lock().expect("memo shard poisoned").iter() {
                out.insert(*k, v.clone());
            }
        }
        out
    }
}

impl<V: Clone> Default for ShardedMemo<V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mask(bits: &[usize]) -> UnitMask {
        let mut m = UnitMask::empty();
        for &b in bits {
            m |= UnitMask::bit(b);
        }
        m
    }

    #[test]
    fn insert_then_get_round_trips() {
        let memo: ShardedMemo<u64> = ShardedMemo::new();
        assert!(memo.is_empty());
        assert!(memo.insert_if_absent(mask(&[0, 70, 200]), 7));
        assert_eq!(memo.get(&mask(&[0, 70, 200])), Some(7));
        assert_eq!(memo.get(&mask(&[1])), None);
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn first_writer_wins() {
        let memo: ShardedMemo<u64> = ShardedMemo::new();
        assert!(memo.insert_if_absent(mask(&[3]), 1));
        assert!(!memo.insert_if_absent(mask(&[3]), 2));
        assert_eq!(memo.get(&mask(&[3])), Some(1));
    }

    #[test]
    fn keys_spread_over_multiple_stripes() {
        let memo: ShardedMemo<usize> = ShardedMemo::new();
        for i in 0..256 {
            memo.insert_if_absent(mask(&[i]), i);
        }
        let used = memo
            .shards
            .iter()
            .filter(|s| !s.lock().unwrap().is_empty())
            .count();
        assert!(used > SHARDS / 2, "only {used} stripes used");
        assert_eq!(memo.snapshot().len(), 256);
    }

    #[test]
    fn concurrent_inserts_linearize_to_the_sequential_contents() {
        let memo: ShardedMemo<usize> = ShardedMemo::new();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let memo = &memo;
                scope.spawn(move || {
                    for i in 0..128 {
                        // All threads write the same pure function of the
                        // key, so races cannot change the final contents.
                        memo.insert_if_absent(mask(&[i, 128 + (i + t) % 8]), i);
                        memo.insert_if_absent(mask(&[i]), i * 3);
                    }
                });
            }
        });
        let snap = memo.snapshot();
        for i in 0..128 {
            assert_eq!(snap.get(&mask(&[i])), Some(&(i * 3)));
        }
    }
}
