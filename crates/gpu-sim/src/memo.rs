//! The one process memo: a bounded map from a key to a value computed once.
//!
//! The paper's tuner (§4) and the figure sweeps flatten, verify, compile
//! and probe the same kernels many times, so each of those steps keeps a
//! memo: the flattening ([`crate::flatcache`]), the schedule verifier's
//! verdicts, the bench harness's builds and probes (statics, one per
//! process), and a serve session's probes (a field, one per session). Every
//! one of them is a [`Memo`], so the policy below is spelled once.
//!
//! **One slot per key.** Callers of a new key claim or join its slot under
//! the lock; one of them runs `make` outside the lock while the rest wait on
//! it, so parallel sweep workers that meet one kernel at once compute it
//! once. A `make` that panics leaves the slot empty, and the next caller
//! computes the value.
//!
//! **The bound.** A memo holds at most 256 keys; a new key that arrives at a
//! full table clears it wholesale before it is inserted. Sweeps churn through
//! distinct kernels; LRU bookkeeping is not worth the locking. Measured
//! (EXPERIMENTS.md, "One process memo"), the most entries a memo reaches in
//! `report all --jobs 2` is 80 flattenings, 90 verdicts, 93 builds and 57
//! probes, and in a benchmark process at its default length 162 flattenings
//! and 195 verdicts (the serve pass), so nothing is cleared.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock};

/// Keys a memo holds before a new one clears it.
const CAPACITY: usize = 256;

/// A process memo from `K` to `V`: see the module documentation. `new` is
/// `const`, so a memo can be a `static` as well as a struct field.
pub struct Memo<K, V> {
    slots: Mutex<Option<HashMap<K, Arc<OnceLock<V>>>>>,
}

impl<K, V> Memo<K, V> {
    /// An empty memo.
    pub const fn new() -> Memo<K, V> {
        Memo { slots: Mutex::new(None) }
    }
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Memo<K, V> {
        Memo::new()
    }
}

impl<K: Hash + Eq, V: Clone> Memo<K, V> {
    /// The value filed under `key`, running `make` for it if no caller has.
    /// A hit costs the lock, one lookup and a clone of the value.
    pub fn get_or_make(&self, key: K, make: impl FnOnce() -> V) -> V {
        let slot = {
            let mut guard = self.slots.lock().expect("memo poisoned");
            let slots = guard.get_or_insert_with(HashMap::new);
            if slots.len() >= CAPACITY && !slots.contains_key(&key) {
                slots.clear();
            }
            let slot = slots.entry(key).or_default();
            if let Some(value) = slot.get() {
                return value.clone();
            }
            Arc::clone(slot)
        };
        slot.get_or_init(make).clone()
    }

    /// Call `f` on every value the memo holds right now (not on a key whose
    /// `make` is still running).
    pub fn visit(&self, mut f: impl FnMut(&V)) {
        let guard = self.slots.lock().expect("memo poisoned");
        for value in guard.iter().flat_map(HashMap::values).filter_map(|slot| slot.get()) {
            f(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::time::{Duration, Instant};

    fn resident(memo: &Memo<usize, usize>) -> usize {
        let mut n = 0;
        memo.visit(|_| n += 1);
        n
    }

    /// Callers holding `key`'s slot: every count but the table's own.
    fn holders(memo: &Memo<usize, usize>, key: usize) -> usize {
        let guard = memo.slots.lock().expect("memo poisoned");
        guard.as_ref().map_or(0, |slots| Arc::strong_count(&slots[&key]) - 1)
    }

    /// A memo holding keys `0..CAPACITY`, each filed as twice itself.
    fn full() -> Memo<usize, usize> {
        let memo = Memo::new();
        for k in 0..CAPACITY {
            assert_eq!(memo.get_or_make(k, || 2 * k), 2 * k);
        }
        memo
    }

    #[test]
    fn concurrent_callers_of_a_new_key_make_it_once() {
        const THREADS: usize = 8;
        let memo: Memo<usize, usize> = Memo::new();
        let made = AtomicUsize::new(0);
        let start = Barrier::new(THREADS);
        let got: Vec<usize> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        memo.get_or_make(7, || {
                            made.fetch_add(1, Ordering::Relaxed);
                            // Finish only once every caller holds the slot,
                            // so the others join this make instead of
                            // finding its value.
                            let deadline = Instant::now() + Duration::from_secs(10);
                            while holders(&memo, 7) < THREADS && Instant::now() < deadline {
                                std::thread::yield_now();
                            }
                            49
                        })
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("worker")).collect()
        });
        assert_eq!(made.load(Ordering::Relaxed), 1);
        assert_eq!(got, vec![49; THREADS]);
        assert_eq!(holders(&memo, 7), 0);
    }

    #[test]
    fn a_present_key_at_a_full_table_is_a_hit_and_clears_nothing() {
        let memo = full();
        assert_eq!(resident(&memo), CAPACITY);
        assert_eq!(memo.get_or_make(0, || unreachable!("key 0 is present")), 0);
        assert_eq!(memo.get_or_make(CAPACITY - 1, || unreachable!()), 2 * (CAPACITY - 1));
        assert_eq!(resident(&memo), CAPACITY);
    }

    #[test]
    fn a_new_key_at_a_full_table_empties_it_first() {
        let memo = full();
        assert_eq!(memo.get_or_make(CAPACITY, || 1), 1);
        assert_eq!(resident(&memo), 1);
        let mut seen = Vec::new();
        memo.visit(|v| seen.push(*v));
        assert_eq!(seen, [1]);
        // What was cleared is made again.
        assert_eq!(memo.get_or_make(0, || 5), 5);
        assert_eq!(resident(&memo), 2);
    }

    #[test]
    fn a_panicking_make_leaves_the_slot_for_the_next_caller() {
        let memo: Memo<usize, usize> = Memo::new();
        let failed = catch_unwind(AssertUnwindSafe(|| memo.get_or_make(3, || panic!("make"))));
        assert!(failed.is_err());
        assert_eq!(resident(&memo), 0);
        assert_eq!(memo.get_or_make(3, || 9), 9);
        assert_eq!(memo.get_or_make(3, || unreachable!("3 is made")), 9);
        assert_eq!(resident(&memo), 1);
    }
}
