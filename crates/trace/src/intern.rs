//! Global string interning for trace analysis.
//!
//! Every field/method/class name that flows through event equality, view naming and
//! difference signatures is interned into a [`Symbol`] — a dense `u32` id that is stable
//! for the lifetime of the process. Comparing and hashing symbols is a single integer
//! operation, so the diff hot paths never touch string data; and because symbols are
//! process-global, keys built from two different traces (or, later, two different shards)
//! compare directly without translation.
//!
//! Interning is write-once. Trace vocabularies (class, field and method names) are
//! tiny relative to trace lengths, so after the first few entries of a workload almost
//! every call to [`intern`] repeats a recent string. Those calls are answered from a
//! small per-thread, direct-mapped cache of `(string, symbol)` pairs without taking any
//! lock. A miss — a new string, or one whose cache slot another string holds — takes
//! the read lock on the global map, and only a string never seen before upgrades to
//! the write lock. The global map stays the single source of truth: a cache slot only
//! ever holds a pair the map returned, and interned strings are never removed. The
//! cache slot comes from a cheap unkeyed hash; the map keeps std's keyed SipHash, since
//! it sees names from untrusted uploads and must resist hash flooding (the hashing rule
//! is stated in [`crate::inthash`]).

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::{OnceLock, RwLock};

/// An interned string: a dense, process-stable `u32` id.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// The raw id. Useful for dense side-tables indexed by symbol.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Resolves the symbol back to its string.
    pub fn as_str(self) -> &'static str {
        resolve(self)
    }
}

impl std::fmt::Display for Symbol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

struct InternerInner {
    map: HashMap<&'static str, Symbol>,
    strings: Vec<&'static str>,
}

fn interner() -> &'static RwLock<InternerInner> {
    static INTERNER: OnceLock<RwLock<InternerInner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(InternerInner {
            map: HashMap::new(),
            strings: Vec::new(),
        })
    })
}

/// Slots in each thread's lookup cache (a power of two).
const CACHE_SLOTS: usize = 256;

thread_local! {
    /// The per-thread cache in front of the global map (see the module docs).
    static CACHE: [Cell<Option<(&'static str, Symbol)>>; CACHE_SLOTS] =
        const { [const { Cell::new(None) }; CACHE_SLOTS] };
}

/// The cache slot of a string: a word-at-a-time multiplicative hash. It is unkeyed on
/// purpose — strings that collide only fall through to the global map.
fn cache_slot(s: &str) -> usize {
    let mut h = s.len() as u64;
    for chunk in s.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = (h.rotate_left(5) ^ u64::from_le_bytes(word)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    (h >> 32) as usize & (CACHE_SLOTS - 1)
}

/// Interns a string, returning its stable [`Symbol`].
pub fn intern(s: &str) -> Symbol {
    CACHE.with(|cache| {
        let slot = &cache[cache_slot(s)];
        if let Some((cached, sym)) = slot.get() {
            if cached == s {
                return sym;
            }
        }
        let (leaked, sym) = intern_global(s);
        slot.set(Some((leaked, sym)));
        sym
    })
}

/// The global map behind [`intern`]: the symbol of `s` and its leaked copy.
fn intern_global(s: &str) -> (&'static str, Symbol) {
    {
        let inner = interner().read().expect("interner poisoned");
        if let Some((&leaked, &sym)) = inner.map.get_key_value(s) {
            return (leaked, sym);
        }
    }
    let mut inner = interner().write().expect("interner poisoned");
    // Double-check: another thread may have interned it between the locks.
    if let Some((&leaked, &sym)) = inner.map.get_key_value(s) {
        return (leaked, sym);
    }
    let sym = Symbol(u32::try_from(inner.strings.len()).expect("interner overflow"));
    // Interned strings live for the process lifetime; leaking gives `&'static str`
    // resolution without reference counting on the hot path.
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    inner.strings.push(leaked);
    inner.map.insert(leaked, sym);
    (leaked, sym)
}

/// Resolves a symbol to its interned string.
///
/// # Panics
///
/// Panics if the symbol did not come from [`intern`] in this process.
pub fn resolve(sym: Symbol) -> &'static str {
    let inner = interner().read().expect("interner poisoned");
    inner.strings[sym.index()]
}

/// Number of distinct strings interned so far (diagnostics / capacity planning).
pub fn interned_count() -> usize {
    interner().read().expect("interner poisoned").strings.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_round_trips() {
        let a = intern("setRequestType");
        assert_eq!(resolve(a), "setRequestType");
        assert_eq!(a.as_str(), "setRequestType");
    }

    #[test]
    fn equal_strings_intern_to_equal_symbols() {
        assert_eq!(intern("minCharRange"), intern("minCharRange"));
        assert_ne!(intern("minCharRange"), intern("maxCharRange"));
    }

    #[test]
    fn symbols_are_stable_across_threads() {
        let base = intern("shared-name");
        let handles: Vec<_> = (0..4)
            .map(|_| std::thread::spawn(|| intern("shared-name")))
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), base);
        }
    }

    #[test]
    fn colliding_cache_slots_evict_each_other_without_changing_symbols() {
        // Brute-force strings that all land in one cache slot, then intern them from
        // four threads in different orders, so in every thread's cache each lookup
        // evicts the string before it: every answer must still be the map's.
        let slot = cache_slot("collide-0");
        let colliding: Vec<String> = (0..)
            .map(|i| format!("collide-{i}"))
            .filter(|s| cache_slot(s) == slot)
            .take(8)
            .collect();
        let start = std::sync::Barrier::new(4);
        let per_thread: Vec<Vec<Symbol>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let (colliding, start) = (&colliding, &start);
                    scope.spawn(move || {
                        // All four threads intern the (new) strings at once.
                        start.wait();
                        let mut seen = vec![None; colliding.len()];
                        for round in 0..200 {
                            for k in 0..colliding.len() {
                                let i = (k * (t + 1) + round) % colliding.len();
                                let sym = intern(&colliding[i]);
                                assert_eq!(resolve(sym), colliding[i]);
                                assert_eq!(*seen[i].get_or_insert(sym), sym, "{}", colliding[i]);
                            }
                        }
                        seen.into_iter().map(Option::unwrap).collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for symbols in &per_thread[1..] {
            assert_eq!(symbols, &per_thread[0]);
        }
        for (s, &sym) in colliding.iter().zip(&per_thread[0]) {
            assert_eq!(intern(s), sym);
            assert_eq!(resolve(sym), s);
        }
    }

    #[test]
    fn count_grows_monotonically() {
        let before = interned_count();
        intern("a-definitely-novel-string-for-count-test");
        assert!(interned_count() > before || before > 0);
    }
}
