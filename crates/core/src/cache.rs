//! [`SharedCache`]: the bounded, single-flight LRU behind every shared artifact — the
//! [`Engine`](crate::Engine)'s pair correlations (§3.3, built once and reused by the
//! three §4.1 comparisons; weight 1 each) and a daemon's prepared handles (weighted by
//! blob bytes).
//!
//! * **Single flight.** Concurrent misses on one key run `build` once, outside the map
//!   lock; the other callers block on that key only and are served its value. A build
//!   that fails (or panics) caches nothing, and the next waiter builds.
//! * **Weight.** An entry counts toward the budget, and can be evicted, only once its
//!   value exists. After each insert, least-recently-used entries are evicted until
//!   the weight fits the budget; the entry just built is never evicted.
//! * **Recency** is a use tick per entry, indexed by an ordered map, so a hit costs
//!   O(log n) and never scans.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// How [`SharedCache::get_or_try_insert_with`] served its value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The value was already cached.
    Hit,
    /// This call built the value and cached it, evicting `evicted` older entries.
    Built {
        /// Least-recently-used entries evicted to fit the budget.
        evicted: usize,
    },
    /// Another caller was building the value; this call waited for that build.
    Waited,
}

/// A weight-bounded, least-recently-used cache whose misses build each value once
/// (see the module docs). Share it by reference or `Arc`; every method takes `&self`.
#[derive(Debug)]
pub struct SharedCache<K, V> {
    budget: u64,
    state: Mutex<State<K, V>>,
}

#[derive(Debug)]
struct State<K, V> {
    slots: HashMap<K, Slot<V>>,
    /// Built keys by last-use tick, least recently used first.
    recency: BTreeMap<u64, K>,
    tick: u64,
    /// Sum of the built entries' weights.
    weight: u64,
}

#[derive(Debug)]
enum Slot<V> {
    Ready {
        value: V,
        weight: u64,
        used: u64,
    },
    /// A build in progress; its waiters block until the builder lets go of the key.
    Building(Arc<OnceLock<()>>),
}

impl<K: Hash + Eq, V> State<K, V> {
    /// Evicts least-recently-used built entries until the weight is at most `target`,
    /// leaving at least `keep` of them; returns how many were evicted.
    fn evict_to(&mut self, target: u64, keep: usize) -> usize {
        let mut evicted = 0;
        while self.weight > target && self.recency.len() > keep {
            let (_, key) = self.recency.pop_first().expect("more than `keep` entries");
            if let Some(Slot::Ready { weight, .. }) = self.slots.remove(&key) {
                self.weight -= weight;
            }
            evicted += 1;
        }
        evicted
    }
}

impl<K: Hash + Eq + Clone, V: Clone> SharedCache<K, V> {
    /// An empty cache whose built entries may weigh `budget` in total.
    pub fn new(budget: u64) -> Self {
        SharedCache {
            budget,
            state: Mutex::new(State {
                slots: HashMap::new(),
                recency: BTreeMap::new(),
                tick: 0,
                weight: 0,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<K, V>> {
        self.state.lock().expect("shared cache poisoned")
    }

    /// The value cached under `key`, or the value `build` returns, cached under `key`
    /// with `weight`. Concurrent misses on one key run one `build`; the others wait
    /// for it. An `Err` from `build` is returned to its caller and caches nothing.
    pub fn get_or_try_insert_with<E>(
        &self,
        key: K,
        weight: u64,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, CacheOutcome), E> {
        let mut outcome = CacheOutcome::Hit;
        let flight = loop {
            let mut guard = self.lock();
            let state = &mut *guard;
            match state.slots.get_mut(&key) {
                Some(Slot::Ready { value, used, .. }) => {
                    let key = state.recency.remove(used).expect("built keys are indexed");
                    state.tick += 1;
                    *used = state.tick;
                    state.recency.insert(state.tick, key);
                    return Ok((value.clone(), outcome));
                }
                Some(Slot::Building(flight)) => {
                    let flight = Arc::clone(flight);
                    drop(guard);
                    outcome = CacheOutcome::Waited;
                    flight.wait();
                }
                None => {
                    let flight = Arc::new(OnceLock::new());
                    state
                        .slots
                        .insert(key.clone(), Slot::Building(Arc::clone(&flight)));
                    break flight;
                }
            }
        };
        let claim = Claim(self, &key, flight);
        let value = build()?;
        let mut guard = self.lock();
        let state = &mut *guard;
        state.tick += 1;
        state.slots.insert(
            key.clone(),
            Slot::Ready {
                value: value.clone(),
                weight,
                used: state.tick,
            },
        );
        state.recency.insert(state.tick, key.clone());
        state.weight += weight;
        let evicted = state.evict_to(self.budget, 1);
        drop(guard);
        drop(claim);
        Ok((value, CacheOutcome::Built { evicted }))
    }

    /// Evicts least-recently-used entries until the cache weighs at most `target`;
    /// returns how many were evicted. Builds in progress are untouched.
    pub fn shrink_to(&self, target: u64) -> usize {
        self.lock().evict_to(target, 0)
    }

    /// Number of built entries.
    pub fn len(&self) -> usize {
        self.lock().recency.len()
    }

    /// Whether no entry is built.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total weight of the built entries.
    pub fn weight(&self) -> u64 {
        self.lock().weight
    }
}

/// A claimed key: the cache, the key and its build's flight. Dropping it ends the
/// claim however the build went: a key still marked as building (the build failed or
/// panicked) is forgotten, and every waiter wakes to look again.
struct Claim<'a, K: Hash + Eq + Clone, V: Clone>(&'a SharedCache<K, V>, &'a K, Arc<OnceLock<()>>);

impl<K: Hash + Eq + Clone, V: Clone> Drop for Claim<'_, K, V> {
    fn drop(&mut self) {
        let Claim(cache, key, flight) = self;
        // A drop must not panic, and a poisoned state has already failed its users.
        let mut state = cache.state.lock().unwrap_or_else(PoisonError::into_inner);
        if matches!(state.slots.get(*key), Some(Slot::Building(f)) if Arc::ptr_eq(f, flight)) {
            state.slots.remove(*key);
        }
        drop(state);
        flight.set(()).ok();
    }
}

#[cfg(test)]
mod tests {
    //! `SharedCache` ≡ a naive `Vec` model, over seeded lookups (some over the budget
    //! alone, some failing to build) and shrinks. After every operation the resident
    //! keys in recency order (hence the eviction order), the weight and every outcome
    //! must agree. The seed is printed; `RPRISM_FUZZ_SEED=<n>` replays a run.

    use super::*;
    use rprism_trace::testgen::{fuzz_seed, Rng};

    /// The reference: `(key, weight)` pairs, least recently used first.
    struct Model(Vec<(u32, u64)>);

    impl Model {
        fn weight(&self) -> u64 {
            self.0.iter().map(|&(_, weight)| weight).sum()
        }

        fn evict(&mut self, target: u64, keep: usize) -> usize {
            let before = self.0.len();
            while self.weight() > target && self.0.len() > keep {
                self.0.remove(0);
            }
            before - self.0.len()
        }
    }

    fn resident(cache: &SharedCache<u32, u64>) -> Vec<(u32, u64)> {
        let state = cache.lock();
        let weight_of = |key| match state.slots[key] {
            Slot::Ready { weight, .. } => weight,
            Slot::Building(_) => panic!("a finished build left {key} building"),
        };
        state.recency.values().map(|k| (*k, weight_of(k))).collect()
    }

    #[test]
    fn shared_cache_matches_a_naive_lru_model() {
        let mut rng = Rng::new(fuzz_seed() ^ 0xcac4_e5ed);
        for round in 0..200 {
            let budget = rng.range(1, 64);
            let keys = rng.range(2, 24);
            let cache = SharedCache::new(budget);
            let mut model = Model(Vec::new());
            for op in 0..rng.usize(1, 120) {
                let at = format!("round {round}, op {op}");
                if rng.range(0, 10) == 0 {
                    let target = rng.range(0, budget + 1);
                    assert_eq!(cache.shrink_to(target), model.evict(target, 0), "{at}");
                } else {
                    let key = rng.range(0, keys) as u32;
                    // Now and then a single entry weighs more than the whole budget.
                    let weight = rng.range(0, budget + budget / 2 + 2);
                    let fails = rng.range(0, 6) == 0;
                    let expected = match model.0.iter().position(|&(k, _)| k == key) {
                        Some(pos) => {
                            model.0[pos..].rotate_left(1);
                            Ok(CacheOutcome::Hit)
                        }
                        None if fails => Err(()),
                        None => {
                            model.0.push((key, weight));
                            let evicted = model.evict(budget, 1);
                            Ok(CacheOutcome::Built { evicted })
                        }
                    };
                    let mut built = false;
                    let got = cache.get_or_try_insert_with(key, weight, || {
                        built = true;
                        (!fails).then_some(u64::from(key) * 7).ok_or(())
                    });
                    assert_eq!(got, expected.map(|o| (u64::from(key) * 7, o)), "{at}");
                    assert_eq!(built, expected != Ok(CacheOutcome::Hit), "{at}");
                }
                assert_eq!(resident(&cache), model.0, "{at}");
                assert_eq!(cache.weight(), model.weight(), "{at}");
                assert_eq!(cache.len(), model.0.len(), "{at}");
            }
        }
    }

    #[test]
    fn a_failed_build_leaves_the_key_to_the_next_waiter() {
        let cache = SharedCache::new(10);
        let builds = std::sync::atomic::AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(4);
        let results: Vec<_> = std::thread::scope(|scope| {
            let lookup = || {
                barrier.wait();
                // The first build fails; the one after it succeeds.
                cache.get_or_try_insert_with(1u32, 1, || {
                    match builds.fetch_add(1, std::sync::atomic::Ordering::SeqCst) {
                        0 => Err(()),
                        _ => Ok(9u64),
                    }
                })
            };
            let workers: Vec<_> = (0..4).map(|_| scope.spawn(lookup)).collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(
            builds.into_inner(),
            2,
            "one failed build, then one good one"
        );
        assert_eq!(results.iter().filter(|r| r.is_err()).count(), 1);
        assert!(results.iter().flatten().all(|&(value, _)| value == 9));
        assert_eq!((cache.len(), cache.weight()), (1, 1));
    }
}
