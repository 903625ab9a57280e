//! The ConstraintMap carried inside the machine state (paper §5.2).

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::{Constraint, ConstraintSet, Location, ZobristComponent};

/// Maps each location currently holding `err` to the set of constraints its
/// (unknown) value must satisfy along the current execution path.
///
/// The map is part of the forked machine state: the true and false branches
/// of a comparison each carry a *different* ConstraintMap, which is how the
/// search "remembers" the outcome of earlier comparisons and keeps later
/// comparisons on unmodified locations consistent.
///
/// The entries are a flat list sorted by location and searched by binary
/// search, behind one `Arc` that is absent for an empty map: an empty map
/// (the common case) costs a null pointer, a one-entry map (the common
/// case after a fork) is one allocation, and a clone shares the entries
/// until either side writes, when the writer copies them once. Iteration
/// order, `Eq` and the `Hash` stream are those of a
/// `BTreeMap<Location, ConstraintSet>` with the same content (a sorted
/// slice of pairs hashes its length and then each key and value in order,
/// exactly as the map does), followed by the two derived caches, as the
/// map's fields were hashed when they were held inline.
#[derive(Debug, Clone, Default)]
pub struct ConstraintMap {
    inner: Option<Arc<Entries>>,
}

type Entry = (Location, ConstraintSet);

/// A non-empty map's content and the caches derived from it.
#[derive(Debug, Clone, Default)]
struct Entries {
    list: List,
    // Locations whose constraint set is unsatisfiable, maintained by
    // `constrain`/`clear`/`copy` so `is_satisfiable` is O(1) on the fork
    // hot path instead of a scan over every constrained location.
    unsat: usize,
    // Rolling XOR-fold over `(location, constraint set)` cells, maintained
    // by the same three mutators so the machine state's fingerprint never
    // re-walks the map.
    digest: ZobristComponent,
}

/// Entries sorted by location. One entry is held inline, so a map that
/// holds one costs one allocation, not two.
#[derive(Debug, Clone)]
enum List {
    One([Entry; 1]),
    Many(Vec<Entry>),
}

impl Default for List {
    fn default() -> Self {
        List::Many(Vec::new())
    }
}

impl List {
    fn from_vec(entries: Vec<Entry>) -> Self {
        match <[Entry; 1]>::try_from(entries) {
            Ok(one) => List::One(one),
            Err(many) => List::Many(many),
        }
    }

    fn as_slice(&self) -> &[Entry] {
        match self {
            List::One(one) => one,
            List::Many(many) => many,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [Entry] {
        match self {
            List::One(one) => one,
            List::Many(many) => many,
        }
    }

    fn insert(&mut self, i: usize, entry: Entry) {
        *self = match std::mem::take(self) {
            List::Many(many) if many.is_empty() => List::One([entry]),
            List::Many(mut many) => {
                many.insert(i, entry);
                List::Many(many)
            }
            List::One([only]) => {
                let mut many = Vec::with_capacity(4);
                many.push(only);
                many.insert(i, entry);
                List::Many(many)
            }
        };
    }

    /// Removes entry `i`; a one-entry list becomes the empty one.
    fn remove(&mut self, i: usize) -> Entry {
        match std::mem::take(self) {
            List::One([only]) => only,
            List::Many(mut many) => {
                let entry = many.remove(i);
                *self = List::Many(many);
                entry
            }
        }
    }
}

impl ConstraintMap {
    /// An empty map.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn entries(&self) -> &[Entry] {
        self.inner.as_deref().map_or(&[], |e| e.list.as_slice())
    }

    fn unsat(&self) -> usize {
        self.inner.as_deref().map_or(0, |e| e.unsat)
    }

    /// The content for writing: shared entries are copied first, and an
    /// empty map gets an allocation.
    fn entries_mut(&mut self) -> &mut Entries {
        Arc::make_mut(self.inner.get_or_insert_with(Arc::default))
    }

    /// Drops the allocation of a map that became empty.
    fn release_if_empty(&mut self) {
        if self.entries().is_empty() {
            self.inner = None;
        }
    }

    /// The index of `loc`'s entry, or the index it would be inserted at.
    fn search(&self, loc: Location) -> Result<usize, usize> {
        self.entries().binary_search_by(|(l, _)| l.cmp(&loc))
    }

    /// Records `constraint` on `loc`, returning whether the location's
    /// constraint set is still satisfiable.
    ///
    /// A `false` return marks the current path as infeasible (a
    /// false-positive candidate); callers prune it from the search.
    #[must_use = "an unsatisfiable result must prune the path"]
    pub fn constrain(&mut self, loc: Location, constraint: Constraint) -> bool {
        let found = self.search(loc);
        let map = self.entries_mut();
        match found {
            Ok(i) => {
                let set = &mut map.list.as_mut_slice()[i].1;
                // Constraint sets only ever tighten, so satisfiability
                // transitions at most once, satisfiable → unsatisfiable.
                let was_satisfiable = set.is_satisfiable();
                map.digest.remove(&loc, &*set);
                set.add(constraint);
                map.digest.insert(&loc, &*set);
                let now_satisfiable = set.is_satisfiable();
                if was_satisfiable && !now_satisfiable {
                    map.unsat += 1;
                }
                now_satisfiable
            }
            Err(i) => {
                let mut set = ConstraintSet::new();
                set.add(constraint);
                let now_satisfiable = set.is_satisfiable();
                if !now_satisfiable {
                    map.unsat += 1;
                }
                map.digest.insert(&loc, &set);
                map.list.insert(i, (loc, set));
                now_satisfiable
            }
        }
    }

    /// Forgets everything known about a location. Called when the location
    /// is overwritten with a *fresh* value (concrete or a new error): the
    /// old constraints described the previous occupant.
    pub fn clear(&mut self, loc: Location) {
        if let Ok(i) = self.search(loc) {
            let map = self.entries_mut();
            let (_, set) = map.list.remove(i);
            map.digest.remove(&loc, &set);
            if !set.is_satisfiable() {
                map.unsat -= 1;
            }
            self.release_if_empty();
        }
    }

    /// Copies the constraints of `from` onto `to` (register moves propagate
    /// the same unknown value, so its known facts travel with it).
    pub fn copy(&mut self, from: Location, to: Location) {
        if from == to {
            return;
        }
        match self.get(from).cloned() {
            Some(set) => self.insert_set(to, set),
            None => self.clear(to),
        }
    }

    /// A map holding exactly `entries`, which must be strictly ascending by
    /// location, with the digest and unsatisfiable-location caches folded
    /// in one pass. The decoder (`crate::codec`) builds through here, so
    /// decoded maps carry live caches exactly like incrementally-built ones.
    pub(crate) fn from_sorted(entries: Vec<Entry>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        if entries.is_empty() {
            return Self::new();
        }
        let unsat = entries.iter().filter(|(_, s)| !s.is_satisfiable()).count();
        let digest = ZobristComponent::refold(entries.iter().map(|(l, s)| (*l, s)));
        ConstraintMap {
            inner: Some(Arc::new(Entries {
                list: List::from_vec(entries),
                unsat,
                digest,
            })),
        }
    }

    /// Installs a whole constraint set on a location, replacing whatever was
    /// recorded, while maintaining the rolling digest and the
    /// unsatisfiable-location counter.
    fn insert_set(&mut self, loc: Location, set: ConstraintSet) {
        let found = self.search(loc);
        let map = self.entries_mut();
        if !set.is_satisfiable() {
            map.unsat += 1;
        }
        map.digest.insert(&loc, &set);
        match found {
            Ok(i) => {
                let old = std::mem::replace(&mut map.list.as_mut_slice()[i].1, set);
                map.digest.remove(&loc, &old);
                if !old.is_satisfiable() {
                    map.unsat -= 1;
                }
            }
            Err(i) => map.list.insert(i, (loc, set)),
        }
    }

    /// The constraint set for a location, if any constraints are recorded.
    #[must_use]
    pub fn get(&self, loc: Location) -> Option<&ConstraintSet> {
        self.search(loc).ok().map(|i| &self.entries()[i].1)
    }

    /// Whether every recorded constraint set is satisfiable.
    ///
    /// O(1): the unsatisfiable-location count is maintained incrementally by
    /// [`ConstraintMap::constrain`] (the only tightening operation) and kept
    /// consistent by `clear`/`copy`, so the fork hot path never rescans the
    /// map.
    #[must_use]
    pub fn is_satisfiable(&self) -> bool {
        self.unsat() == 0
    }

    /// A concrete witness for a location (used for replay); `None` if the
    /// location is unconstrained — any value works — in which case callers
    /// typically choose a surprising default.
    #[must_use]
    pub fn witness(&self, loc: Location) -> Option<i64> {
        self.get(loc).and_then(ConstraintSet::witness)
    }

    /// Number of constrained locations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// Whether no constraints are recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.is_none()
    }

    /// Iterates over `(location, constraint set)` pairs in location order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (Location, &ConstraintSet)> {
        self.entries().iter().map(|(l, s)| (*l, s))
    }

    /// The rolling XOR-fold over the map's `(location, constraint set)`
    /// cells, maintained incrementally by `constrain`/`clear`/`copy`. O(1);
    /// the machine state mixes it into its fingerprint instead of
    /// re-hashing every entry.
    #[must_use]
    pub fn digest(&self) -> ZobristComponent {
        self.inner
            .as_deref()
            .map_or(ZobristComponent::new(), |e| e.digest)
    }

    /// A from-scratch recompute of [`ConstraintMap::digest`] — O(|map|),
    /// for the digest-consistency tests and reference fingerprint path
    /// only.
    #[must_use]
    pub fn refold_digest(&self) -> ZobristComponent {
        ZobristComponent::refold(self.iter())
    }
}

impl PartialEq for ConstraintMap {
    fn eq(&self, other: &Self) -> bool {
        self.entries() == other.entries()
    }
}

impl Eq for ConstraintMap {}

impl Hash for ConstraintMap {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.entries().hash(state);
        self.unsat().hash(state);
        self.digest().hash(state);
    }
}

impl fmt::Display for ConstraintMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("{}");
        }
        writeln!(f, "{{")?;
        for (loc, set) in self.iter() {
            writeln!(f, "  {loc}: {set}")?;
        }
        f.write_str("}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constrain_accumulates_and_detects_unsat() {
        let mut m = ConstraintMap::new();
        let loc = Location::reg(3);
        assert!(m.constrain(loc, Constraint::Gt(0)));
        assert!(m.constrain(loc, Constraint::Le(5)));
        assert!(m.is_satisfiable());
        assert!(!m.constrain(loc, Constraint::Gt(5)));
        assert!(!m.is_satisfiable());
    }

    #[test]
    fn clear_forgets_location() {
        let mut m = ConstraintMap::new();
        let loc = Location::reg(3);
        let _ = m.constrain(loc, Constraint::Eq(7));
        m.clear(loc);
        assert!(m.get(loc).is_none());
        assert!(m.is_empty());
    }

    #[test]
    fn copy_moves_facts_with_the_value() {
        let mut m = ConstraintMap::new();
        let a = Location::reg(1);
        let b = Location::reg(2);
        let _ = m.constrain(a, Constraint::Ge(10));
        m.copy(a, b);
        assert_eq!(m.witness(b), Some(10));
        // Copying an unconstrained source erases stale facts on the target.
        m.copy(Location::reg(5), b);
        assert!(m.get(b).is_none());
        // Self-copy is a no-op.
        m.copy(a, a);
        assert_eq!(m.witness(a), Some(10));
    }

    #[test]
    fn independent_locations_do_not_interfere() {
        let mut m = ConstraintMap::new();
        assert!(m.constrain(Location::reg(1), Constraint::Eq(1)));
        assert!(m.constrain(Location::mem(100), Constraint::Eq(2)));
        assert_eq!(m.len(), 2);
        assert_eq!(m.witness(Location::reg(1)), Some(1));
        assert_eq!(m.witness(Location::mem(100)), Some(2));
    }

    #[test]
    fn display_lists_entries() {
        let mut m = ConstraintMap::new();
        assert_eq!(m.to_string(), "{}");
        let _ = m.constrain(Location::reg(3), Constraint::Gt(1));
        let text = m.to_string();
        assert!(text.contains("$3"));
        assert!(text.contains("notLesserThan(2)"));
    }

    #[test]
    fn unsat_cache_tracks_clear_and_copy() {
        let mut m = ConstraintMap::new();
        let a = Location::reg(1);
        let b = Location::reg(2);
        // Drive `a` unsatisfiable.
        assert!(m.constrain(a, Constraint::Gt(5)));
        assert!(!m.constrain(a, Constraint::Lt(5)));
        assert!(!m.is_satisfiable());
        // Overwriting the location restores satisfiability.
        m.clear(a);
        assert!(m.is_satisfiable());
        // An unsat set copied onto another location is still tracked…
        assert!(m.constrain(a, Constraint::Gt(5)));
        assert!(!m.constrain(a, Constraint::Lt(5)));
        m.copy(a, b);
        assert!(!m.is_satisfiable());
        m.clear(a);
        assert!(!m.is_satisfiable(), "the copy at `b` is still unsat");
        // …and copying an unconstrained source over it clears the flag.
        m.copy(Location::reg(7), b);
        assert!(m.is_satisfiable());
        // Copying a satisfiable set over an unsat target also restores.
        assert!(m.constrain(a, Constraint::Eq(1)));
        assert!(!m.constrain(b, Constraint::Gt(2)) || !m.constrain(b, Constraint::Lt(2)));
        m.copy(a, b);
        assert!(m.is_satisfiable());
    }

    #[test]
    fn digest_tracks_constrain_clear_and_copy() {
        let mut m = ConstraintMap::new();
        let a = Location::reg(1);
        let b = Location::reg(2);
        assert_eq!(m.digest(), m.refold_digest());
        assert!(m.constrain(a, Constraint::Gt(0)));
        assert_eq!(m.digest(), m.refold_digest());
        assert!(m.constrain(a, Constraint::Le(9)));
        assert_eq!(m.digest(), m.refold_digest());
        m.copy(a, b);
        assert_eq!(m.digest(), m.refold_digest());
        // Copy over an existing target, self-copy, unconstrained-source copy.
        assert!(m.constrain(b, Constraint::Ne(3)));
        m.copy(a, b);
        assert_eq!(m.digest(), m.refold_digest());
        m.copy(a, a);
        assert_eq!(m.digest(), m.refold_digest());
        m.copy(Location::reg(7), b);
        assert_eq!(m.digest(), m.refold_digest());
        m.clear(a);
        assert_eq!(m.digest(), m.refold_digest());
        assert_eq!(m.digest(), ZobristComponent::new(), "empty map folds to 0");
        // Equal contents reached by different histories agree.
        let mut n = ConstraintMap::new();
        assert!(n.constrain(b, Constraint::Gt(0)));
        let mut o = ConstraintMap::new();
        assert!(o.constrain(a, Constraint::Gt(0)));
        o.copy(a, b);
        o.clear(a);
        assert_eq!(n, o);
        assert_eq!(n.digest(), o.digest());
    }

    #[test]
    fn maps_hash_equal_iff_equal() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut a = ConstraintMap::new();
        let mut b = ConstraintMap::new();
        let _ = a.constrain(Location::reg(1), Constraint::Gt(0));
        let _ = b.constrain(Location::reg(1), Constraint::Gt(0));
        assert_eq!(a, b);
        let hash = |m: &ConstraintMap| {
            let mut h = DefaultHasher::new();
            m.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
    }
}
