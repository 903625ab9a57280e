//! Per-location constraints and the custom satisfiability solver.
//!
//! The paper's constraint tracking sub-model (§5.2) maps each location
//! containing `err` to a set of constraints like `notGreaterThan(5)
//! notEqualTo(2) greaterThan(0)`. The solver decides whether such a set is
//! satisfiable — if not, the state is a false positive and the search is
//! truncated — and eliminates redundancies in the set.

use std::collections::BTreeSet;
use std::fmt;
use sympl_asm::Cmp;

/// A single constraint on the (unknown) integer behind an `err` symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Constraint {
    /// The value equals the constant.
    Eq(i64),
    /// `notEqualTo(c)`.
    Ne(i64),
    /// `greaterThan(c)`.
    Gt(i64),
    /// `lesserThan(c)`.
    Lt(i64),
    /// `notLesserThan(c)` (≥).
    Ge(i64),
    /// `notGreaterThan(c)` (≤).
    Le(i64),
}

impl Constraint {
    /// Builds the constraint learned from `value CMP c` being *true*.
    #[must_use]
    pub fn from_cmp(cmp: Cmp, c: i64) -> Self {
        match cmp {
            Cmp::Eq => Constraint::Eq(c),
            Cmp::Ne => Constraint::Ne(c),
            Cmp::Gt => Constraint::Gt(c),
            Cmp::Lt => Constraint::Lt(c),
            Cmp::Ge => Constraint::Ge(c),
            Cmp::Le => Constraint::Le(c),
        }
    }

    /// Whether a concrete integer satisfies the constraint.
    #[must_use]
    pub fn holds(self, v: i64) -> bool {
        match self {
            Constraint::Eq(c) => v == c,
            Constraint::Ne(c) => v != c,
            Constraint::Gt(c) => v > c,
            Constraint::Lt(c) => v < c,
            Constraint::Ge(c) => v >= c,
            Constraint::Le(c) => v <= c,
        }
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constraint::Eq(c) => write!(f, "equalTo({c})"),
            Constraint::Ne(c) => write!(f, "notEqualTo({c})"),
            Constraint::Gt(c) => write!(f, "greaterThan({c})"),
            Constraint::Lt(c) => write!(f, "lesserThan({c})"),
            Constraint::Ge(c) => write!(f, "notLesserThan({c})"),
            Constraint::Le(c) => write!(f, "notGreaterThan({c})"),
        }
    }
}

/// A canonicalized set of constraints on one location.
///
/// Internally the set is an interval `[lo, hi]` plus a finite exclusion set,
/// which is a normal form for conjunctions of the six constraint shapes:
/// bounds tighten the interval, `Ne` adds exclusions, and exclusions outside
/// the interval are dropped (the redundancy elimination the paper's solver
/// performs).
///
/// ```
/// use sympl_symbolic::{Constraint, ConstraintSet};
///
/// let mut s = ConstraintSet::new();
/// s.add(Constraint::Gt(0));
/// s.add(Constraint::Le(5));
/// s.add(Constraint::Ne(2));
/// assert!(s.is_satisfiable());
/// assert_eq!(s.witness(), Some(1));
/// assert!(!s.allows(2));
/// assert!(s.allows(5));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConstraintSet {
    lo: i64,
    hi: i64,
    excluded: BTreeSet<i64>,
}

impl ConstraintSet {
    /// The unconstrained set (any integer).
    #[must_use]
    pub fn new() -> Self {
        ConstraintSet {
            lo: i64::MIN,
            hi: i64::MAX,
            excluded: BTreeSet::new(),
        }
    }

    /// Whether no constraint has been recorded yet.
    #[must_use]
    pub fn is_unconstrained(&self) -> bool {
        self.lo == i64::MIN && self.hi == i64::MAX && self.excluded.is_empty()
    }

    /// Adds a constraint, tightening the normal form.
    pub fn add(&mut self, c: Constraint) {
        match c {
            Constraint::Eq(v) => {
                self.lo = self.lo.max(v);
                self.hi = self.hi.min(v);
            }
            Constraint::Ne(v) => {
                self.excluded.insert(v);
            }
            Constraint::Gt(v) => match v.checked_add(1) {
                Some(lo) => self.lo = self.lo.max(lo),
                // Nothing exceeds i64::MAX: force an empty interval.
                None => {
                    self.lo = i64::MAX;
                    self.hi = i64::MIN;
                }
            },
            Constraint::Ge(v) => {
                self.lo = self.lo.max(v);
            }
            Constraint::Lt(v) => match v.checked_sub(1) {
                Some(hi) => self.hi = self.hi.min(hi),
                // Nothing is below i64::MIN.
                None => {
                    self.lo = i64::MAX;
                    self.hi = i64::MIN;
                }
            },
            Constraint::Le(v) => {
                self.hi = self.hi.min(v);
            }
        }
        self.normalize();
    }

    fn normalize(&mut self) {
        let (lo, hi) = (self.lo, self.hi);
        self.excluded.retain(|&v| v >= lo && v <= hi);
        // Shrink bounds past excluded endpoints so `lo`/`hi` stay feasible.
        while self.lo <= self.hi && self.excluded.remove(&self.lo) {
            self.lo = self.lo.saturating_add(1);
        }
        while self.lo <= self.hi && self.excluded.remove(&self.hi) {
            self.hi = self.hi.saturating_sub(1);
        }
    }

    /// Whether some integer satisfies every recorded constraint.
    ///
    /// This is the pruning test of the paper's solver: an unsatisfiable set
    /// marks a false-positive path that the model checker truncates.
    #[must_use]
    pub fn is_satisfiable(&self) -> bool {
        if self.lo > self.hi {
            return false;
        }
        // After normalization the endpoints are never excluded, so a
        // non-empty interval always contains a feasible point.
        true
    }

    /// Whether a specific concrete value satisfies the set.
    #[must_use]
    pub fn allows(&self, v: i64) -> bool {
        v >= self.lo && v <= self.hi && !self.excluded.contains(&v)
    }

    /// A concrete witness satisfying the set, used to *replay* a symbolic
    /// finding on the concrete simulator (paper §6.2 validated its tcas
    /// finding the same way, via SimpleScalar).
    #[must_use]
    pub fn witness(&self) -> Option<i64> {
        if !self.is_satisfiable() {
            return None;
        }
        debug_assert!(self.allows(self.lo));
        Some(self.lo)
    }

    /// The inclusive lower bound.
    #[must_use]
    pub fn lower(&self) -> i64 {
        self.lo
    }

    /// The inclusive upper bound.
    #[must_use]
    pub fn upper(&self) -> i64 {
        self.hi
    }

    /// The excluded points inside the current interval.
    pub fn exclusions(&self) -> impl ExactSizeIterator<Item = i64> + '_ {
        self.excluded.iter().copied()
    }
}

impl Default for ConstraintSet {
    fn default() -> Self {
        Self::new()
    }
}

impl FromIterator<Constraint> for ConstraintSet {
    fn from_iter<T: IntoIterator<Item = Constraint>>(iter: T) -> Self {
        let mut s = ConstraintSet::new();
        for c in iter {
            s.add(c);
        }
        s
    }
}

impl Extend<Constraint> for ConstraintSet {
    fn extend<T: IntoIterator<Item = Constraint>>(&mut self, iter: T) {
        for c in iter {
            self.add(c);
        }
    }
}

impl fmt::Display for ConstraintSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_unconstrained() {
            return f.write_str("unconstrained");
        }
        let mut parts = Vec::new();
        if self.lo == self.hi {
            parts.push(format!("equalTo({})", self.lo));
        } else {
            if self.lo != i64::MIN {
                parts.push(format!("notLesserThan({})", self.lo));
            }
            if self.hi != i64::MAX {
                parts.push(format!("notGreaterThan({})", self.hi));
            }
        }
        for v in &self.excluded {
            parts.push(format!("notEqualTo({v})"));
        }
        f.write_str(&parts.join(" "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_set() {
        // "notGreaterThan(5) notEqualTo(2) greaterThan(0)": any integer in
        // (0, 5] except 2 — the paper says "between 0 and 5 excluding 0 and
        // 2 but including 5".
        let s: ConstraintSet = [Constraint::Le(5), Constraint::Ne(2), Constraint::Gt(0)]
            .into_iter()
            .collect();
        assert!(s.is_satisfiable());
        for v in [1, 3, 4, 5] {
            assert!(s.allows(v), "{v} should satisfy the paper's example set");
        }
        for v in [0, 2, 6, -1] {
            assert!(!s.allows(v), "{v} should be rejected");
        }
    }

    #[test]
    fn contradictory_bounds_unsat() {
        let s: ConstraintSet = [Constraint::Gt(5), Constraint::Lt(5)].into_iter().collect();
        assert!(!s.is_satisfiable());
        assert_eq!(s.witness(), None);
    }

    #[test]
    fn eq_then_ne_same_value_unsat() {
        let s: ConstraintSet = [Constraint::Eq(3), Constraint::Ne(3)].into_iter().collect();
        assert!(!s.is_satisfiable());
    }

    #[test]
    fn exclusions_can_exhaust_finite_interval() {
        let s: ConstraintSet = [
            Constraint::Ge(1),
            Constraint::Le(3),
            Constraint::Ne(1),
            Constraint::Ne(2),
            Constraint::Ne(3),
        ]
        .into_iter()
        .collect();
        assert!(!s.is_satisfiable());
    }

    #[test]
    fn witness_is_always_feasible() {
        let s: ConstraintSet = [Constraint::Ge(10), Constraint::Ne(10), Constraint::Ne(11)]
            .into_iter()
            .collect();
        let w = s.witness().unwrap();
        assert_eq!(w, 12);
        assert!(s.allows(w));
    }

    #[test]
    fn redundant_exclusions_are_dropped() {
        let mut s = ConstraintSet::new();
        s.add(Constraint::Ne(100));
        s.add(Constraint::Le(5));
        assert_eq!(s.exclusions().count(), 0, "exclusion above hi dropped");
    }

    #[test]
    fn adjacent_exclusions_shrink_bounds_transitively() {
        let mut s = ConstraintSet::new();
        s.add(Constraint::Ge(0));
        s.add(Constraint::Ne(1));
        s.add(Constraint::Ne(0));
        // lo moved past both excluded endpoints.
        assert_eq!(s.witness(), Some(2));
    }

    #[test]
    fn saturating_bounds_at_extremes() {
        let mut s = ConstraintSet::new();
        s.add(Constraint::Gt(i64::MAX));
        assert!(!s.is_satisfiable(), "nothing is > i64::MAX");
        let mut t = ConstraintSet::new();
        t.add(Constraint::Lt(i64::MIN));
        assert!(!t.is_satisfiable());
    }

    #[test]
    fn equality_pins_interval() {
        let mut s = ConstraintSet::new();
        s.add(Constraint::Eq(42));
        assert_eq!(s.lower(), 42);
        assert_eq!(s.upper(), 42);
        assert_eq!(s.witness(), Some(42));
        s.add(Constraint::Ge(43));
        assert!(!s.is_satisfiable());
    }

    #[test]
    fn display_round_trips_semantics() {
        assert_eq!(ConstraintSet::new().to_string(), "unconstrained");
        let s: ConstraintSet = [Constraint::Gt(0), Constraint::Le(5), Constraint::Ne(2)]
            .into_iter()
            .collect();
        let text = s.to_string();
        assert!(text.contains("notLesserThan(1)"), "{text}");
        assert!(text.contains("notGreaterThan(5)"), "{text}");
        assert!(text.contains("notEqualTo(2)"), "{text}");
    }

    #[test]
    fn from_cmp_matches_predicate_semantics() {
        for (cmp, c) in [
            (Cmp::Eq, 3),
            (Cmp::Ne, 3),
            (Cmp::Gt, 3),
            (Cmp::Lt, 3),
            (Cmp::Ge, 3),
            (Cmp::Le, 3),
        ] {
            let constraint = Constraint::from_cmp(cmp, c);
            for v in -5..=5 {
                assert_eq!(
                    constraint.holds(v),
                    cmp.eval(v, c),
                    "{constraint} vs {cmp} at {v}"
                );
            }
        }
    }
}
