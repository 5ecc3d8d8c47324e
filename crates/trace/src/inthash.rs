//! The hashing rule for maps keyed by trace data.
//!
//! Names, thread ids, locations, fingerprints and content hashes all come from traces,
//! and traces come from untrusted uploads. Every map keyed by them therefore hashes with
//! a secret key, so that an uploader who cannot predict the hash cannot steer many keys
//! into one bucket (hash flooding). Two hashers share the work:
//!
//! * **string keys** (the interner's map, the binary writer's string table) use std's
//!   SipHash through [`RandomState`];
//! * **integer keys from traces** (thread ids, locations, symbols, view keys, object
//!   keys, content hashes) use [`IntHashState`]: each written word is mixed into the
//!   state by one 128-bit folded multiply, and `finish` mixes once more. Its seed and
//!   multiplier are drawn from a fresh [`RandomState`] per map, so they are as secret
//!   as std's keys and differ between maps.
//!
//! An unkeyed integer hash (FxHash and the like) is never used for trace data: with a
//! fixed function, a trace whose locations all differ by a multiple of the table size
//! fills one bucket chain.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// A [`HashMap`] keyed by integers from traces, hashed by [`IntHashState`].
pub type IntMap<K, V> = HashMap<K, V, IntHashState>;

/// A [`HashSet`] of integers from traces, hashed by [`IntHashState`].
pub type IntSet<K> = HashSet<K, IntHashState>;

/// The keyed multiply hasher's builder: one secret seed and one secret odd multiplier,
/// drawn from a fresh [`RandomState`] when it is made. See the module docs.
#[derive(Clone)]
pub struct IntHashState {
    seed: u64,
    multiplier: u64,
}

impl IntHashState {
    /// A state with fresh secret keys.
    pub fn new() -> Self {
        let mut sip = RandomState::new().build_hasher();
        sip.write_u64(0);
        let seed = sip.finish();
        sip.write_u64(1);
        let multiplier = sip.finish() | 1;
        IntHashState { seed, multiplier }
    }
}

impl Default for IntHashState {
    fn default() -> Self {
        IntHashState::new()
    }
}

impl std::fmt::Debug for IntHashState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IntHashState").finish_non_exhaustive()
    }
}

impl BuildHasher for IntHashState {
    type Hasher = IntHasher;

    #[inline]
    fn build_hasher(&self) -> IntHasher {
        IntHasher {
            state: self.seed,
            seed: self.seed,
            multiplier: self.multiplier,
        }
    }
}

/// The hasher [`IntHashState`] builds.
pub struct IntHasher {
    state: u64,
    seed: u64,
    multiplier: u64,
}

/// The full 128-bit product of `a` and `b`, its halves folded together by XOR.
#[inline]
pub(crate) fn folded_multiply(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

impl Hasher for IntHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.state = folded_multiply(self.state ^ word, self.multiplier);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.write_u64(n as u64);
        self.write_u64((n >> 64) as u64);
    }

    /// Word by word, little-endian; a last partial word carries its length in its top
    /// byte, so inputs that differ only by trailing zero bytes hash apart.
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            word[7] = rest.len() as u8;
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        folded_multiply(self.state, self.seed | 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// How many distinct values the low 12 and the top 7 bits of the keys' hashes take.
    fn spread(state: &IntHashState, keys: impl Iterator<Item = u64>) -> (usize, usize) {
        let (mut low, mut top) = (HashSet::new(), HashSet::new());
        for key in keys {
            let hash = state.hash_one(key);
            low.insert(hash & 0xfff);
            top.insert(hash >> 57);
        }
        (low.len(), top.len())
    }

    #[test]
    fn structured_keys_spread_over_the_bucket_and_tag_bits() {
        // A random function puts 4096 keys on about 2 590 of 4096 low-bit values and
        // on all 128 top-bit values. Keys that differ only in high bits, or only above
        // a table-sized stride, must spread nearly as well.
        for _ in 0..8 {
            let state = IntHashState::new();
            for (name, shift) in [("i << 32", 32), ("i << 52", 52), ("i * 4096", 12)] {
                let (low, top) = spread(&state, (0..4096u64).map(|i| i << shift));
                assert!(low >= 2_000, "{name}: {low} distinct low 12-bit values");
                assert!(top >= 100, "{name}: {top} distinct top 7-bit values");
            }
        }
    }

    #[test]
    fn independently_built_states_hash_apart() {
        let (a, b) = (IntHashState::new(), IntHashState::new());
        for key in [0u64, 1, 42, 1 << 32, u64::MAX] {
            assert_ne!(a.hash_one(key), b.hash_one(key), "key {key}");
        }
        // The same state is a function.
        assert_eq!(a.hash_one((7u32, 9u64)), a.hash_one((7u32, 9u64)));
    }

    #[test]
    fn byte_input_hashes_word_by_word_and_keeps_its_length() {
        let state = IntHashState::new();
        let hash = |bytes: &[u8]| {
            let mut hasher = state.build_hasher();
            hasher.write(bytes);
            hasher.finish()
        };
        assert_ne!(hash(b"ab"), hash(b"ab\0"));
        assert_ne!(hash(b""), hash(b"\0"));
        let mut words = state.build_hasher();
        words.write_u64(u64::from_le_bytes(*b"abcdefgh"));
        assert_eq!(hash(b"abcdefgh"), words.finish());
    }
}
