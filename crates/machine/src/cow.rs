//! Structurally-shared, copy-on-write memory for [`crate::MachineState`].
//!
//! The exploration engine clones machine states at every fork; with a plain
//! `BTreeMap` memory each clone deep-copies the whole memory image, which
//! makes forking O(|memory|) and dominates every campaign. [`CowMemory`]
//! keeps the image as one exact-size, address-sorted slice of cells behind
//! an [`Arc`]:
//!
//! * `clone` bumps the refcount — O(1), no cell is copied.
//! * reads binary-search the slice.
//! * overwriting a defined address goes through [`Arc::make_mut`]: in place
//!   when the image is not shared, otherwise one contiguous copy — so a
//!   fork pays for its image once, on its first memory write.
//! * defining a new address rebuilds the slice once, at exact size, as
//!   `lo ++ [cell] ++ hi` (a single allocation).
//!
//! Equality, iteration, and hashing see only the cells, so two memories
//! with the same contents are indistinguishable whatever their write and
//! fork history — the property the model checker's fingerprint dedup
//! relies on.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use sympl_symbolic::{Value, ZobristComponent};

/// A copy-on-write map from memory addresses to values.
#[derive(Debug, Clone)]
pub(crate) struct CowMemory {
    // Strictly ascending by address, exactly as long as the number of
    // defined addresses.
    cells: Arc<[(u64, Value)]>,
    // The rolling XOR-fold over the `(addr, value)` cells, maintained by
    // `insert`, which the state fingerprint mixes in instead of re-hashing
    // the whole image. A function of content only.
    digest: ZobristComponent,
}

impl CowMemory {
    /// An empty memory.
    pub(crate) fn new() -> Self {
        CowMemory {
            cells: Arc::new([]),
            digest: ZobristComponent::new(),
        }
    }

    /// A memory holding `cells`. Strictly ascending addresses — what
    /// [`CowMemory::iter`], and so the state codec, always produce — are
    /// taken as they are and the digest is folded once; any other order
    /// falls back to one `insert` per cell, so a later duplicate wins.
    pub(crate) fn from_cells(cells: Vec<(u64, Value)>) -> Self {
        if cells.windows(2).all(|w| w[0].0 < w[1].0) {
            let digest = ZobristComponent::refold(cells.iter().copied());
            return CowMemory {
                cells: cells.into(),
                digest,
            };
        }
        let mut mem = CowMemory::new();
        for (addr, value) in cells {
            mem.insert(addr, value);
        }
        mem
    }

    fn find(&self, addr: u64) -> Result<usize, usize> {
        self.cells.binary_search_by_key(&addr, |&(a, _)| a)
    }

    /// The value at `addr`, if defined.
    pub(crate) fn get(&self, addr: u64) -> Option<Value> {
        self.find(addr).ok().map(|i| self.cells[i].1)
    }

    /// Defines or overwrites `addr`.
    pub(crate) fn insert(&mut self, addr: u64, value: Value) {
        match self.find(addr) {
            Ok(i) => {
                let old = self.cells[i].1;
                // A same-value rewrite leaves the content untouched; skip
                // it rather than unshare the image for nothing.
                if old != value {
                    self.digest.update(&addr, &old, &value);
                    Arc::make_mut(&mut self.cells)[i].1 = value;
                }
            }
            Err(i) => {
                self.digest.insert(&addr, &value);
                let (lo, hi) = self.cells.split_at(i);
                // Chained slice iterators report an exact length, so the
                // new slice is allocated once, at its final size.
                self.cells = lo
                    .iter()
                    .copied()
                    .chain(std::iter::once((addr, value)))
                    .chain(hi.iter().copied())
                    .collect();
            }
        }
    }

    /// Number of defined addresses.
    pub(crate) fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no address is defined.
    pub(crate) fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The rolling XOR-fold over the image's `(addr, value)` cells. O(1);
    /// the state fingerprint mixes this in instead of walking memory.
    pub(crate) fn digest(&self) -> ZobristComponent {
        self.digest
    }

    /// A from-scratch recompute of [`CowMemory::digest`] — O(|memory|), for
    /// consistency tests and the reference fingerprint path only.
    pub(crate) fn refold_digest(&self) -> ZobristComponent {
        ZobristComponent::refold(self.iter())
    }

    /// The largest defined address, if any.
    pub(crate) fn last_addr(&self) -> Option<u64> {
        self.cells.last().map(|&(addr, _)| addr)
    }

    /// `(address, value)` pairs in ascending address order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, Value)> + '_ {
        self.cells.iter().copied()
    }

    /// Whether `self` and `other` share one image (the structural sharing
    /// `clone` introduces, until either side writes).
    pub(crate) fn shares_storage_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.cells, &other.cells)
    }
}

impl PartialEq for CowMemory {
    fn eq(&self, other: &Self) -> bool {
        self.cells == other.cells
    }
}

impl Eq for CowMemory {}

impl Hash for CowMemory {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // A slice hashes as a length prefix then its entries in order —
        // the same stream as the `BTreeMap<u64, Value>` it replaces.
        self.cells.hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::BTreeMap;

    fn hash_of<T: Hash>(m: &T) -> u64 {
        let mut h = DefaultHasher::new();
        m.hash(&mut h);
        h.finish()
    }

    #[test]
    fn reads_see_delta_over_base() {
        // A fork's writes are its own: the origin keeps its value.
        let mut a = CowMemory::new();
        a.insert(8, Value::Int(1));
        let mut b = a.clone();
        assert!(a.shares_storage_with(&b));
        b.insert(8, Value::Int(2));
        b.insert(16, Value::Int(3));
        assert_eq!(a.get(8), Some(Value::Int(1)));
        assert_eq!(a.get(16), None);
        assert_eq!(b.get(8), Some(Value::Int(2)));
        assert_eq!(b.get(16), Some(Value::Int(3)));
        assert!(!a.shares_storage_with(&b));
    }

    #[test]
    fn equality_and_hash_ignore_layering() {
        let mut flat = CowMemory::new();
        for i in 0..10 {
            flat.insert(i * 8, Value::Int(i as i64));
        }
        // The same contents through forks, descending writes and
        // overwrites.
        let mut partial = CowMemory::new();
        for i in (5..10).rev() {
            partial.insert(i * 8, Value::Int(-1));
        }
        let _pin = partial.clone();
        let mut forked = partial.clone();
        for i in 0..10 {
            forked.insert(i * 8, Value::Int(i as i64));
        }
        assert_eq!(flat, forked);
        assert_eq!(hash_of(&flat), hash_of(&forked));
        assert_eq!(flat.len(), forked.len());
        assert_eq!(flat.digest(), forked.digest());
        assert!(flat.iter().eq(forked.iter()));
        // The hash stream is the reference map's.
        let reference: BTreeMap<u64, Value> = flat.iter().collect();
        assert_eq!(hash_of(&flat), hash_of(&reference));
        assert_eq!(
            hash_of(&CowMemory::new()),
            hash_of(&BTreeMap::<u64, Value>::new())
        );
    }

    #[test]
    fn shadowed_addresses_counted_once() {
        let mut a = CowMemory::new();
        a.insert(8, Value::Int(1));
        a.insert(16, Value::Int(2));
        let _pin = a.clone();
        a.insert(8, Value::Int(3)); // overwrites, does not add
        assert_eq!(a.len(), 2);
        assert_eq!(
            a.iter().collect::<Vec<_>>(),
            vec![(8, Value::Int(3)), (16, Value::Int(2))]
        );
        assert_eq!(a.last_addr(), Some(16));
    }

    #[test]
    fn compaction_folds_delta() {
        // Many writes after a fork keep length, order and digest right.
        let mut a = CowMemory::new();
        a.insert(0, Value::Int(0));
        let pin = a.clone();
        for i in (0..100u64).rev() {
            a.insert(i, Value::Int(i as i64));
        }
        assert_eq!(a.len(), 100);
        assert!(a.iter().map(|(addr, _)| addr).eq(0..100));
        assert!(a.iter().all(|(addr, v)| v == Value::Int(addr as i64)));
        assert_eq!(a.last_addr(), Some(99));
        assert_eq!(a.digest(), a.refold_digest());
        assert_eq!(pin.len(), 1);
        assert_eq!(pin.digest(), pin.refold_digest());
    }

    #[test]
    fn len_and_digest_caches_survive_layering_and_compaction() {
        let mut m = CowMemory::new();
        assert_eq!(m.digest(), m.refold_digest());
        m.insert(8, Value::Int(1));
        let _pin = m.clone();
        m.insert(8, Value::Int(2)); // overwrite after a fork
        m.insert(8, Value::Int(2)); // same-value rewrite: a no-op
        m.insert(16, Value::Err);
        assert_eq!(m.len(), 2);
        assert_eq!(m.digest(), m.refold_digest());
        let before = m.digest();
        for i in 0..68u64 {
            m.insert(i * 8 + 1000, Value::Int(i as i64));
        }
        assert_eq!(m.digest(), m.refold_digest());
        assert_eq!(m.len(), 2 + 68);
        assert_ne!(m.digest(), before);
        // Same contents, different history: digests agree, and the bulk
        // build matches both.
        let mut flat = CowMemory::new();
        for (a, v) in m.iter() {
            flat.insert(a, v);
        }
        assert_eq!(flat, m);
        assert_eq!(flat.digest(), m.digest());
        let bulk = CowMemory::from_cells(m.iter().collect());
        assert_eq!(bulk, m);
        assert_eq!(bulk.digest(), m.digest());
    }

    #[test]
    fn unique_owner_writes_in_place() {
        let mut a = CowMemory::new();
        for i in 0..100u64 {
            a.insert(i, Value::Int(1));
        }
        let image = a.cells.as_ptr();
        for i in 0..100u64 {
            a.insert(i, Value::Int(2));
        }
        assert_eq!(a.cells.as_ptr(), image, "a sole owner overwrites in place");
        assert_eq!(a.digest(), a.refold_digest());
    }

    #[test]
    fn from_cells_out_of_order_matches_inserts() {
        let cells = vec![
            (16, Value::Int(1)),
            (8, Value::Err),
            (16, Value::Int(2)),
            (0, Value::Int(3)),
        ];
        let mut by_insert = CowMemory::new();
        for &(addr, v) in &cells {
            by_insert.insert(addr, v);
        }
        let bulk = CowMemory::from_cells(cells);
        assert_eq!(bulk, by_insert);
        assert_eq!(bulk.get(16), Some(Value::Int(2)), "a later duplicate wins");
        assert_eq!(bulk.digest(), bulk.refold_digest());
    }
}
