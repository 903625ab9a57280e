//! 128-bit state fingerprints for visited-set deduplication.
//!
//! The model checker used to store whole [`crate::MachineState`] values in
//! its visited set — hundreds of bytes per state. A [`Fingerprint`] is a
//! 128-bit digest of everything state equality observes (program counter,
//! registers, memory content, I/O streams, constraint map, watchdog
//! counter, status), so dedup costs 16 bytes per state and one hash pass.
//! At 128 bits a campaign of a billion states has a collision probability
//! around 1.5e-21, far below the model's other sources of approximation;
//! the search-equivalence property tests compare fingerprint dedup against
//! full-state dedup on the paper workloads.
//!
//! # Incremental (Zobrist-style) digest maintenance
//!
//! Computing a digest by re-walking the whole state term is O(|state|) per
//! enqueued successor — the dominant cost once forking is O(1). Instead,
//! every *collection-valued* state component (register file, memory
//! image, output stream, constraint map) maintains a [`ZobristComponent`]:
//! an XOR-fold of one **cell hash** per `(key, value)` entry, updated in
//! O(1) per mutation by XOR-ing the old cell out and the new cell in.
//! [`crate::MachineState::fingerprint`] then mixes the component folds and
//! the cheap scalars (pc, input cursor, step counter, status) through one
//! fixed-size FNV-1a pass, so the digest costs O(writes) amortized over the
//! path — never O(|state|) at call time.
//!
//! # Determinism contract (why no random Zobrist table)
//!
//! Classic Zobrist hashing draws one random bitstring per (location, value)
//! pair from a pre-seeded table, which caps the key domain and drags RNG
//! state into every engine. Here the cell hash is simply FNV-128 of the
//! encoded `(key, value)` pair ([`cell_hash`]): fully deterministic, defined
//! for unbounded domains (64-bit addresses, arbitrary constraint sets), and
//! needing no table, seed, or initialization order. The XOR fold keeps the
//! two algebraic properties the engine relies on:
//!
//! * **Content determinism** — the fold is a function of the entry *set*
//!   only. Insertion order and copy-on-write sharing cannot move it, so
//!   equal states always fingerprint equal.
//! * **Self-inverse updates** — XOR-ing a cell twice cancels, so overwrite
//!   is "remove old, insert new" with no lookup into an auxiliary structure.
//!
//! Collision quality is the birthday bound over XOR-accumulated FNV-128
//! cells rather than a single serial FNV stream; both are ~2^-64-per-pair
//! schemes, and the digest-consistency property tests pin the rolling fold
//! to a from-scratch recompute after arbitrary mutation/fork sequences.
//! The primitives themselves ([`Fnv128Hasher`], [`cell_hash`],
//! [`ZobristComponent`]) live in `sympl-symbolic` so the `ConstraintMap`
//! can maintain its own fold; they are re-exported here, where the state
//! digest scheme they serve is documented.
//!
//! # Visited-set bucketing
//!
//! The same XOR structure that makes the fold cheap leaves the digest's
//! raw bits correlated: on 450 k distinct tcas fingerprints, bits 64..84
//! take ~66 k distinct values where uniform bits would take ~366 k, and
//! hundreds of fingerprints share all 64 high bits. Bucketing a hash set
//! on a raw slice of the digest therefore piles states into a few long
//! probe chains. [`FingerprintSet`] instead buckets through
//! [`FingerprintHasher`], which avalanches all 128 bits into the bucket
//! hash. The mix is private to the set: no digest, count or key moves.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

pub use sympl_symbolic::{cell_hash, Fnv128Hasher, ZobristComponent};

/// A 128-bit digest of a machine state's content.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

/// The bucket [`Hasher`] for [`Fingerprint`] keys.
///
/// The digest's raw bits are not uniform enough to bucket on directly: the
/// XOR-folded cell hashes leave whole runs of bits correlated, so any
/// fixed 64-bit slice of a large set's digests takes far fewer distinct
/// values than the set has entries. This hasher folds **all 128 bits**
/// through splitmix64's avalanche finaliser, `fmix(hi ^ fmix(lo))`: every
/// input bit reaches every output bit, so fingerprints that differ in
/// either half land in different buckets. (A plain `hi ^ lo` fold, or a
/// single multiply, inherits the XOR structure of the digest and
/// collides.) Only bucket positions depend on it; the digest itself, and
/// everything keyed on it, does not.
#[derive(Debug, Clone, Copy, Default)]
pub struct FingerprintHasher {
    hash: u64,
}

/// splitmix64's finaliser: a bijective 64-bit avalanche mix.
fn fmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Hasher for FingerprintHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (not used by `Fingerprint`, whose derived Hash
        // calls `write_u128`): mix each byte in.
        for &b in bytes {
            self.hash = fmix(self.hash ^ u64::from(b));
        }
    }

    fn write_u128(&mut self, n: u128) {
        self.hash = fmix((n >> 64) as u64 ^ fmix(n as u64));
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// The [`std::hash::BuildHasher`] plugging [`FingerprintHasher`] into std
/// collections.
pub type FingerprintBuildHasher = BuildHasherDefault<FingerprintHasher>;

/// A visited set keyed by fingerprints, bucketed by [`FingerprintHasher`]
/// (one finaliser pass per probe instead of SipHash's full keyed hash).
pub type FingerprintSet = HashSet<Fingerprint, FingerprintBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    #[test]
    fn distinct_inputs_give_distinct_digests() {
        let digest = |v: u64| {
            let mut h = Fnv128Hasher::new();
            v.hash(&mut h);
            Fingerprint(h.finish128())
        };
        let mut seen = std::collections::HashSet::new();
        for v in 0..10_000u64 {
            assert!(seen.insert(digest(v)), "collision at {v}");
        }
    }

    fn bucket_hash(fp: Fingerprint) -> u64 {
        let mut h = FingerprintHasher::default();
        fp.hash(&mut h);
        h.finish()
    }

    #[test]
    fn bucket_hash_mixes_both_halves() {
        let base = 0xDEAD_BEEF_0123_4567_89AB_CDEF_FEED_FACE_u128;
        let hash = bucket_hash(Fingerprint(base));
        // A one-bit change in either half moves the bucket hash, and no
        // half passes through unmixed.
        for bit in 0..128 {
            let flipped = bucket_hash(Fingerprint(base ^ (1u128 << bit)));
            assert_ne!(flipped, hash, "bit {bit} ignored");
        }
        assert_ne!(hash, (base >> 64) as u64, "high half passed through");
        assert_ne!(hash, base as u64, "low half passed through");
        // Fingerprints that differ only in the low half, or only in the
        // high half, get distinct bucket hashes.
        let mut seen = std::collections::HashSet::new();
        for v in 0..10_000u128 {
            assert!(seen.insert(bucket_hash(Fingerprint(v))), "low-half {v}");
            assert!(
                seen.insert(bucket_hash(Fingerprint((v + 1) << 64))),
                "high-half {v}"
            );
        }
        // A FingerprintSet behaves like a plain set.
        let mut set = FingerprintSet::default();
        for v in 0..1000u128 {
            assert!(set.insert(Fingerprint(v << 64 | v)));
        }
        for v in 0..1000u128 {
            assert!(set.contains(&Fingerprint(v << 64 | v)));
            assert!(!set.insert(Fingerprint(v << 64 | v)));
        }
        assert_eq!(set.len(), 1000);
    }

    #[test]
    fn shard_uses_low_bits() {
        // Fingerprints that share their low bits (the bits a power-of-two
        // partition of the set would split on) still get distinct bucket
        // hashes: the hash sees every bit above them.
        let same_low: std::collections::HashSet<u64> = (0..256u128)
            .map(|v| bucket_hash(Fingerprint(v << 6 | 0x2B)))
            .collect();
        assert_eq!(same_low.len(), 256);
        assert!((0..256u128).all(|v| Fingerprint(v << 6 | 0x2B).0 & 63 == 0x2B));
    }

    #[test]
    fn digest_is_deterministic() {
        let mut a = Fnv128Hasher::new();
        let mut b = Fnv128Hasher::new();
        "some state bytes".hash(&mut a);
        "some state bytes".hash(&mut b);
        assert_eq!(a.finish128(), b.finish128());
        assert_eq!(a.finish(), b.finish());
    }
}
