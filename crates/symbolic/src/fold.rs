//! Deterministic 128-bit hashing and incremental XOR-folds.
//!
//! These are the primitives behind the machine crate's rolling state
//! fingerprints (see `sympl-machine`'s `fingerprint` module for the full
//! scheme). They live here, below the machine state, because the
//! [`crate::ConstraintMap`] — a component of that state — maintains its own
//! incremental set-hash with them: the map's mutators are the only places
//! that know which `(location, constraint set)` cell an operation touches,
//! exactly as its unsatisfiable-location counter is maintained where the
//! sets change.

use std::hash::{Hash, Hasher};

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;

/// FNV-1a accumulator exposing a 128-bit digest through the standard
/// [`Hasher`] interface (so any `Hash` impl can feed it).
#[derive(Debug, Clone)]
pub struct Fnv128Hasher {
    state: u128,
}

impl Fnv128Hasher {
    /// A hasher at the FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fnv128Hasher {
            state: FNV128_OFFSET,
        }
    }

    /// The full 128-bit digest.
    #[must_use]
    pub fn finish128(&self) -> u128 {
        self.state
    }

    /// One FNV-1a round over a whole word. The fixed-width [`Hasher`]
    /// methods below route here, absorbing an integer in a single
    /// xor-multiply instead of one round per byte — the state fingerprint
    /// and rolling-fold paths hash almost exclusively through those
    /// methods, and this is what keeps a per-successor digest to a handful
    /// of 128-bit multiplies. The round is a bijection on the state (odd
    /// prime, invertible xor), so word-at-a-time absorption loses no
    /// distinctness over the byte loop.
    #[inline]
    fn round(&mut self, word: u128) {
        self.state ^= word;
        self.state = self.state.wrapping_mul(FNV128_PRIME);
    }
}

impl Default for Fnv128Hasher {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher for Fnv128Hasher {
    fn write(&mut self, bytes: &[u8]) {
        // Raw byte streams (strings, mixed-width encodings) keep the
        // canonical per-byte FNV-1a rounds.
        for &b in bytes {
            self.round(u128::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.round(u128::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.round(u128::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.round(u128::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.round(u128::from(i));
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.round(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.round(i as u128);
    }

    #[inline]
    fn write_i8(&mut self, i: i8) {
        self.round(u128::from(i as u8));
    }

    #[inline]
    fn write_i16(&mut self, i: i16) {
        self.round(u128::from(i as u16));
    }

    #[inline]
    fn write_i32(&mut self, i: i32) {
        self.round(u128::from(i as u32));
    }

    #[inline]
    fn write_i64(&mut self, i: i64) {
        self.round(u128::from(i as u64));
    }

    #[inline]
    fn write_i128(&mut self, i: i128) {
        self.round(i as u128);
    }

    #[inline]
    fn write_isize(&mut self, i: isize) {
        self.round(i as u128);
    }

    fn finish(&self) -> u64 {
        self.state as u64
    }
}

/// The 128-bit hash of one `(key, value)` cell of a collection-valued state
/// component: FNV-128 of the pair's canonical [`Hash`] byte stream.
///
/// Deterministic with no random Zobrist table: the key domain is unbounded
/// (64-bit addresses, arbitrary constraint sets) and the pair encoding
/// already makes distinct cells hash independently, which is all the XOR
/// fold needs.
#[must_use]
pub fn cell_hash<K: Hash + ?Sized, V: Hash + ?Sized>(key: &K, value: &V) -> u128 {
    let mut h = Fnv128Hasher::new();
    key.hash(&mut h);
    value.hash(&mut h);
    h.finish128()
}

/// An incrementally-maintained XOR-fold over a component's `(key, value)`
/// cells — the rolling half of a state fingerprint.
///
/// The fold is order-independent and self-inverse, so the owner updates it
/// in O(1) per write: [`remove`](Self::remove) the old cell (if the key was
/// defined), [`insert`](Self::insert) the new one. Because XOR cancels
/// pairs, the invariant the owner must uphold is *multiset symmetry*: every
/// cell currently in the collection has been inserted exactly once more
/// than removed. The digest-consistency property tests pin this against a
/// from-scratch [`refold`](Self::refold) after arbitrary mutation
/// sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ZobristComponent(u128);

impl ZobristComponent {
    /// The fold of an empty component.
    #[must_use]
    pub const fn new() -> Self {
        ZobristComponent(0)
    }

    /// XORs a cell into the fold (a key becoming defined with `value`).
    pub fn insert<K: Hash + ?Sized, V: Hash + ?Sized>(&mut self, key: &K, value: &V) {
        self.0 ^= cell_hash(key, value);
    }

    /// XORs a cell out of the fold (a key's old binding being dropped).
    /// XOR is self-inverse, so this is `insert`'s exact mirror; the
    /// distinct name documents which side of an overwrite a call site is.
    pub fn remove<K: Hash + ?Sized, V: Hash + ?Sized>(&mut self, key: &K, value: &V) {
        self.0 ^= cell_hash(key, value);
    }

    /// Replaces a key's binding: removes the old cell, inserts the new.
    pub fn update<K: Hash + ?Sized, V: Hash + ?Sized>(&mut self, key: &K, old: &V, new: &V) {
        self.remove(key, old);
        self.insert(key, new);
    }

    /// The current 128-bit fold.
    #[must_use]
    pub const fn value(self) -> u128 {
        self.0
    }

    /// A from-scratch fold of an entry iterator — the reference the rolling
    /// fold must equal at all times. O(|component|); used by the consistency
    /// property tests and the `fingerprint_from_scratch` reference path,
    /// never by the engine's hot paths.
    #[must_use]
    pub fn refold<K: Hash, V: Hash, I: IntoIterator<Item = (K, V)>>(entries: I) -> Self {
        let mut fold = ZobristComponent::new();
        for (k, v) in entries {
            fold.insert(&k, &v);
        }
        fold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_is_order_independent_and_self_inverse() {
        let mut ab = ZobristComponent::new();
        ab.insert(&1u64, &10i64);
        ab.insert(&2u64, &20i64);
        let mut ba = ZobristComponent::new();
        ba.insert(&2u64, &20i64);
        ba.insert(&1u64, &10i64);
        assert_eq!(ab, ba, "XOR fold must not observe insertion order");

        // Overwrite = remove old + insert new; removing everything returns
        // to the empty fold.
        ab.update(&1u64, &10i64, &11i64);
        assert_ne!(ab, ba);
        ab.update(&1u64, &11i64, &10i64);
        assert_eq!(ab, ba);
        ab.remove(&1u64, &10i64);
        ab.remove(&2u64, &20i64);
        assert_eq!(ab, ZobristComponent::new());
    }

    #[test]
    fn refold_matches_incremental_construction() {
        let entries: Vec<(u64, i64)> = (0..50).map(|i| (i, i as i64 * 3 - 7)).collect();
        let mut rolling = ZobristComponent::new();
        for &(k, v) in &entries {
            rolling.insert(&k, &v);
        }
        assert_eq!(rolling, ZobristComponent::refold(entries));
    }

    #[test]
    fn distinct_cells_hash_distinctly() {
        // Key/value boundary confusion would make (1, 2) and (2, 1)-style
        // cells collide; spot-check a grid.
        let mut seen = std::collections::HashSet::new();
        for k in 0u64..100 {
            for v in -5i64..5 {
                assert!(seen.insert(cell_hash(&k, &v)), "collision at ({k},{v})");
            }
        }
    }

    #[test]
    fn fnv128_is_deterministic() {
        let mut a = Fnv128Hasher::new();
        let mut b = Fnv128Hasher::new();
        "some state bytes".hash(&mut a);
        "some state bytes".hash(&mut b);
        assert_eq!(a.finish128(), b.finish128());
        assert_eq!(a.finish(), b.finish());
    }
}
