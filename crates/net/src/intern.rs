//! Interning pools — the §4.1.3 memory optimization.
//!
//! The paper: *"Batfish requires only a small fraction of the total memory
//! capacity of the routers it simulates because it leverages the single
//! [simulation] process to intern common objects. The number of unique
//! values for routing attributes is orders of magnitude lower than the
//! total number of routes."*
//!
//! [`Interner<T>`] deduplicates values behind `Arc`s. [`Interned<T>`]
//! compares and hashes by *pointer*, which turns the deep equality checks
//! the BGP decision process performs (AS paths, community sets, whole
//! attribute bundles) into single pointer comparisons — the paper notes
//! interning "also speed[s] up equality checks".
//!
//! The pool also keeps the statistics ([`InternStats`]) that the A-2
//! ablation experiment reports: total requests vs. unique values, and an
//! estimate of bytes saved.

use crate::hash::{FxBuild, FxMap};
use std::collections::hash_map::Entry;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::ops::Deref;
use std::sync::{Arc, Mutex};

/// A handle to an interned value. Clone is an `Arc` bump; `Eq`/`Hash`/`Ord`
/// consider two handles from the *same pool* equal iff they point at the
/// same allocation.
pub struct Interned<T>(Arc<T>);

impl<T> Interned<T> {
    /// Raw pointer identity, exposed for diagnostics and for deterministic
    /// tie-free hashing structures.
    pub fn as_ptr(&self) -> *const T {
        Arc::as_ptr(&self.0)
    }
}

impl<T> Clone for Interned<T> {
    fn clone(&self) -> Self {
        Interned(Arc::clone(&self.0))
    }
}

impl<T> Deref for Interned<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> PartialEq for Interned<T> {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl<T> Eq for Interned<T> {}

impl<T> Hash for Interned<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (Arc::as_ptr(&self.0) as usize).hash(state);
    }
}

/// Ordering delegates to the underlying value so that interned routes can
/// participate in the deterministic orderings the engine depends on
/// (pointer order would vary run to run).
impl<T: Ord> PartialOrd for Interned<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: Ord> Ord for Interned<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if Arc::ptr_eq(&self.0, &other.0) {
            std::cmp::Ordering::Equal
        } else {
            self.0.as_ref().cmp(other.0.as_ref())
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for Interned<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.as_ref().fmt(f)
    }
}

impl<T: fmt::Display> fmt::Display for Interned<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.as_ref().fmt(f)
    }
}

/// Statistics from an interning pool, used by the memory ablation (A-2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InternStats {
    /// Number of `intern` calls.
    pub requests: u64,
    /// Number of distinct values stored.
    pub unique: u64,
}

impl InternStats {
    /// Sharing factor: how many requests each unique value served. The
    /// paper reports 10×–20× for BGP attribute bundles.
    pub fn sharing_factor(&self) -> f64 {
        if self.unique == 0 {
            0.0
        } else {
            self.requests as f64 / self.unique as f64
        }
    }

    /// Estimated bytes saved given the per-value payload size: every
    /// deduplicated request would otherwise have carried its own copy.
    pub fn bytes_saved(&self, value_size: usize) -> u64 {
        (self.requests - self.unique) * value_size as u64
    }
}

/// A thread-safe deduplicating pool.
///
/// The pool is [`SHARDS`] `Mutex`-guarded maps and a value lives in the
/// one its hash picks, so equal values still meet in one map. One lock was
/// not enough: the BGP sweep interns every imported route from each map
/// thread at once, and with two threads on two cores a single lock left
/// one of them queued often enough to cancel the second core.
///
/// A value is hashed once, with the workspace's [`FxHasher`](crate::hash::FxHasher):
/// the hash's upper half picks the shard and the whole hash keys the
/// shard's map. Two distinct values with one 64-bit hash are possible, so
/// the map holds the first and a short list holds the rest.
pub struct Interner<T: Eq + Hash> {
    shards: Vec<Mutex<PoolInner<T>>>,
}

/// Lock shards per pool.
const SHARDS: usize = 16;

struct PoolInner<T> {
    map: FxMap<u64, Arc<T>>,
    /// Values whose hash the map already holds for a different value.
    collided: Vec<(u64, Arc<T>)>,
    stats: InternStats,
}

impl<T: Eq + Hash> Default for Interner<T> {
    fn default() -> Self {
        Interner::new()
    }
}

impl<T: Eq + Hash> Interner<T> {
    /// Creates an empty pool.
    pub fn new() -> Interner<T> {
        let shard = || {
            Mutex::new(PoolInner {
                map: FxMap::default(),
                collided: Vec::new(),
                stats: InternStats::default(),
            })
        };
        Interner {
            shards: (0..SHARDS).map(|_| shard()).collect(),
        }
    }

    /// Returns the canonical handle for `value`, inserting it on first
    /// sight.
    pub fn intern(&self, value: T) -> Interned<T> {
        let hash = FxBuild::default().hash_one(&value);
        let mut pool = self.shards[(hash >> 32) as usize % SHARDS]
            .lock()
            .expect("interner poisoned");
        pool.stats.requests += 1;
        let pool = &mut *pool;
        let arc = match pool.map.entry(hash) {
            Entry::Occupied(held) if **held.get() == value => {
                return Interned(Arc::clone(held.get()))
            }
            Entry::Occupied(_) => {
                let same = |(h, held): &&(u64, Arc<T>)| *h == hash && **held == value;
                if let Some((_, held)) = pool.collided.iter().find(same) {
                    return Interned(Arc::clone(held));
                }
                let arc = Arc::new(value);
                pool.collided.push((hash, Arc::clone(&arc)));
                arc
            }
            Entry::Vacant(slot) => Arc::clone(slot.insert(Arc::new(value))),
        };
        pool.stats.unique += 1;
        Interned(arc)
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> InternStats {
        let mut total = InternStats::default();
        for shard in &self.shards {
            let stats = shard.lock().expect("interner poisoned").stats;
            total.requests += stats.requests;
            total.unique += stats.unique;
        }
        total
    }

    /// Number of distinct values currently stored.
    pub fn len(&self) -> usize {
        let len = |shard: &Mutex<PoolInner<T>>| {
            let pool = shard.lock().expect("interner poisoned");
            pool.map.len() + pool.collided.len()
        };
        self.shards.iter().map(len).sum()
    }

    /// True when the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bgp::{AsPath, Asn};

    #[test]
    fn interning_dedups() {
        let pool: Interner<AsPath> = Interner::new();
        let a = pool.intern(AsPath(vec![Asn(1), Asn(2)]));
        let b = pool.intern(AsPath(vec![Asn(1), Asn(2)]));
        let c = pool.intern(AsPath(vec![Asn(3)]));
        assert_eq!(a, b);
        assert_eq!(a.as_ptr(), b.as_ptr());
        assert_ne!(a, c);
        assert_eq!(pool.len(), 2);
        let stats = pool.stats();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.unique, 2);
        assert!((stats.sharing_factor() - 1.5).abs() < 1e-9);
    }

    /// Distinct values that all hash alike.
    #[derive(PartialEq, Eq, Debug)]
    struct Collides(u32);

    impl Hash for Collides {
        fn hash<H: Hasher>(&self, state: &mut H) {
            state.write_u32(7);
        }
    }

    #[test]
    fn equal_hashes_of_distinct_values_stay_distinct() {
        let pool: Interner<Collides> = Interner::new();
        let one = pool.intern(Collides(1));
        let two = pool.intern(Collides(2));
        let three = pool.intern(Collides(3));
        assert_ne!(one, two);
        assert_ne!(two, three);
        assert_eq!(pool.intern(Collides(1)), one);
        assert_eq!(pool.intern(Collides(3)), three);
        assert_eq!(*pool.intern(Collides(2)), Collides(2));
        assert_eq!(pool.len(), 3);
        assert_eq!(
            pool.stats(),
            InternStats {
                requests: 6,
                unique: 3
            }
        );
    }

    #[test]
    fn interned_ord_is_value_ord() {
        let pool: Interner<u32> = Interner::new();
        let one = pool.intern(1);
        let two = pool.intern(2);
        assert!(one < two);
        assert_eq!(one.cmp(&pool.intern(1)), std::cmp::Ordering::Equal);
    }

    #[test]
    fn bytes_saved_accounting() {
        let pool: Interner<[u8; 88]> = Interner::new();
        for _ in 0..100 {
            pool.intern([7u8; 88]);
        }
        let stats = pool.stats();
        assert_eq!(stats.unique, 1);
        // 99 duplicate requests at 88 bytes each (the paper's per-route
        // figure for the moved properties).
        assert_eq!(stats.bytes_saved(88), 99 * 88);
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let pool: Interner<u64> = Interner::new();
        std::thread::scope(|s| {
            for t in 0..8 {
                let pool = &pool;
                s.spawn(move || {
                    for i in 0..1000u64 {
                        let h = pool.intern(i % 50 + t % 2);
                        assert_eq!(*h, i % 50 + t % 2);
                    }
                });
            }
        });
        assert!(pool.len() <= 51);
        assert_eq!(pool.stats().requests, 8000);
    }

    #[test]
    fn deref_exposes_value() {
        let pool: Interner<String> = Interner::new();
        let s = pool.intern("hello".to_string());
        assert_eq!(s.len(), 5);
        assert_eq!(&*s, "hello");
        assert_eq!(format!("{s}"), "hello");
    }
}
