//! The engine's visited set: one fingerprint table per watchdog step
//! count, so that a breadth-first search can forget what no later state
//! can match.
//!
//! A state's `steps` is part of its identity: `MachineState`'s `Eq`,
//! `Hash` and fingerprint all include it, and `step_into` never gives a
//! successor fewer steps than its parent (one more, or as many for the
//! terminal watchdog and illegal-instruction successors). [`VisitedSet`]
//! keeps one [`FingerprintSet`] per `steps` value, and a state is a
//! duplicate when its fingerprint is in its own step's layer, that is,
//! when it matches on `(steps, fingerprint)`.
//!
//! # Sweeping
//!
//! On a queue that serves states in push order
//! ([`FrontierQueue::serves_in_push_order`]) the search runs in
//! *generations*: a generation is every state the queue holds once the
//! previous generation has been served and expanded, and it is over when
//! the queue has served that many more. Every later state descends from a
//! state pushed during the generation just expanded, so none has fewer
//! steps than the least of those: that least count is the next *floor*,
//! and every layer below it is retired. This is the sweep-line method
//! (Christensen, Kristensen & Mailund, TACAS 2001) with `steps` as the
//! progress measure. On the exhaustive pooled tcas sweep it keeps about
//! 5 % of the fingerprints alive at the peak instead of all of them. An
//! insert below the floor would break the argument above, so it panics
//! rather than pass as fresh. Retired tables are cleared and reused for
//! new layers.
//!
//! Any other queue (LIFO, best-first, iterative deepening) may serve a
//! shallow state after a deep one, so its visited set retires nothing.
//!
//! [`FrontierQueue::serves_in_push_order`]: crate::FrontierQueue::serves_in_push_order

use std::collections::VecDeque;

use sympl_machine::{Fingerprint, FingerprintSet};

/// A visited set layered by `steps`; see the [module docs](self).
#[derive(Debug)]
pub(crate) struct VisitedSet {
    /// One table per `steps` value, from `base` up; a step count no state
    /// has gets an empty table.
    layers: VecDeque<FingerprintSet>,
    /// The `steps` of `layers[0]` (meaningless while `layers` is empty).
    base: u64,
    /// No insert may carry fewer steps: every layer below was retired.
    floor: u64,
    /// Retired tables, cleared, kept for new layers.
    spare: Vec<FingerprintSet>,
    /// Whether generations retire layers: the queue serves in push order.
    sweeping: bool,
    /// States of the current generation not yet served.
    unserved: usize,
    /// The least `steps` inserted during the current generation
    /// (`u64::MAX`: none yet).
    least_inserted: u64,
    /// Fingerprints held, and the most held at once.
    live: usize,
    peak_live: usize,
}

impl VisitedSet {
    /// An empty set; `sweeping` when the search's queue serves states in
    /// push order.
    pub(crate) fn new(sweeping: bool) -> Self {
        VisitedSet {
            layers: VecDeque::new(),
            base: 0,
            floor: 0,
            spare: Vec::new(),
            sweeping,
            unserved: 0,
            least_inserted: u64::MAX,
            live: 0,
            peak_live: 0,
        }
    }

    /// Records a state by its step count and fingerprint; `true` if it was
    /// not yet visited.
    ///
    /// # Panics
    ///
    /// Panics if `steps` lies below the floor: a sweeping search would
    /// otherwise count an already retired state as fresh.
    pub(crate) fn insert(&mut self, steps: u64, fingerprint: Fingerprint) -> bool {
        let fresh = self.layer(steps).insert(fingerprint);
        if fresh {
            self.live += 1;
            self.least_inserted = self.least_inserted.min(steps);
        }
        fresh
    }

    /// Notes that the queue served one state; `queued` reports how many
    /// it holds now, and is asked only when a generation begins. On a
    /// sweeping search the first state served after a generation's last
    /// one starts the next generation, and the layers below its floor are
    /// retired.
    pub(crate) fn served(&mut self, queued: impl FnOnce() -> usize) {
        if !self.sweeping {
            return;
        }
        if self.unserved == 0 {
            // The queue held `queued() + 1` states before this pop: exactly
            // those inserted while the last generation was expanded, the
            // least of which is the new floor.
            debug_assert!(
                self.least_inserted != u64::MAX,
                "a state served, none queued"
            );
            self.retire_below(self.least_inserted);
            self.least_inserted = u64::MAX;
            self.unserved = queued() + 1;
        }
        self.unserved -= 1;
    }

    /// Forgets every state, for a search that restarts from its roots
    /// (iterative deepening's per-round dedup reset).
    pub(crate) fn clear(&mut self) {
        while !self.layers.is_empty() {
            self.retire_front();
        }
        self.floor = 0;
        self.unserved = 0;
        self.least_inserted = u64::MAX;
    }

    /// The most fingerprints the set has held at once.
    pub(crate) fn peak_live(&self) -> usize {
        self.peak_live.max(self.live)
    }

    /// Retires every layer below `floor` and raises the floor to it.
    fn retire_below(&mut self, floor: u64) {
        while self.base < floor && !self.layers.is_empty() {
            self.retire_front();
        }
        self.floor = floor;
    }

    /// Moves the lowest layer's table, cleared, to the spares.
    fn retire_front(&mut self) {
        self.peak_live = self.peak_live();
        let mut table = self.layers.pop_front().expect("a layer to retire");
        self.live -= table.len();
        table.clear();
        self.spare.push(table);
        self.base += 1;
    }

    /// The table for `steps`, adding (or reusing) tables at either end.
    fn layer(&mut self, steps: u64) -> &mut FingerprintSet {
        assert!(
            steps >= self.floor,
            "a state with {steps} steps reached a visited set swept up to step {}: \
             the queue did not serve in push order",
            self.floor
        );
        if self.layers.is_empty() {
            self.base = steps;
        }
        while steps < self.base {
            let table = self.spare.pop().unwrap_or_default();
            self.layers.push_front(table);
            self.base -= 1;
        }
        let index = usize::try_from(steps - self.base).expect("a step span fits in memory");
        while self.layers.len() <= index {
            let table = self.spare.pop().unwrap_or_default();
            self.layers.push_back(table);
        }
        &mut self.layers[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(n: u128) -> Fingerprint {
        Fingerprint(n)
    }

    #[test]
    fn a_duplicate_matches_on_steps_and_fingerprint() {
        let mut v = VisitedSet::new(false);
        assert!(v.insert(3, fp(7)));
        assert!(!v.insert(3, fp(7)));
        assert!(v.insert(4, fp(7)), "same fingerprint, other step count");
        assert!(v.insert(3, fp(8)));
        assert_eq!(v.peak_live(), 3);
    }

    #[test]
    fn a_seed_below_the_base_adds_layers_in_front() {
        let mut v = VisitedSet::new(true);
        assert!(v.insert(10, fp(1)));
        assert!(v.insert(4, fp(1)));
        assert!(v.insert(7, fp(2)));
        assert_eq!((v.base, v.layers.len()), (4, 7));
        assert!(!v.insert(10, fp(1)) && !v.insert(4, fp(1)) && !v.insert(7, fp(2)));
        // The first generation's floor is the least seed.
        v.served(|| 2);
        assert_eq!((v.floor, v.base), (4, 4));
    }

    #[test]
    fn a_generation_boundary_retires_the_layers_below_its_floor() {
        let mut v = VisitedSet::new(true);
        // Generation 0: two seeds at steps 5 and 6.
        assert!(v.insert(5, fp(1)) && v.insert(6, fp(2)));
        v.served(|| 1);
        assert!(v.insert(6, fp(3)), "the step-5 seed's successor");
        v.served(|| 1);
        assert!(v.insert(7, fp(4)), "the step-6 seed's successor");
        assert_eq!(v.live, 4);
        // Generation 1 ({6: fp 3, 7: fp 4}) begins: its floor is 6.
        v.served(|| 1);
        assert_eq!((v.floor, v.base, v.live), (6, 6, 3));
        assert!(!v.insert(6, fp(2)), "layer 6 is still live");
        assert!(v.insert(8, fp(5)));
        v.served(|| 1);
        assert_eq!(v.floor, 6, "mid-generation: nothing retired");
        assert!(v.insert(8, fp(6)));
        // Generation 2 ({8: fp 5, fp 6}): layers 6 and 7 go.
        v.served(|| 1);
        assert_eq!((v.floor, v.base, v.live, v.layers.len()), (8, 8, 2, 1));
        assert_eq!(v.peak_live(), 5);
    }

    /// Runs a breadth-first search through `v` the way the engine does:
    /// a FIFO of `(steps, fingerprint)` seeded with `seeds`, where each
    /// served state inserts `children` of its own and queues the fresh ones.
    fn sweep(
        v: &mut VisitedSet,
        seeds: &[(u64, u128)],
        children: impl Fn(u64, u128) -> Vec<(u64, u128)>,
    ) {
        let mut queue: VecDeque<(u64, u128)> = VecDeque::new();
        for &(steps, n) in seeds {
            if v.insert(steps, fp(n)) {
                queue.push_back((steps, n));
            }
        }
        while let Some((steps, n)) = queue.pop_front() {
            v.served(|| queue.len());
            for (child_steps, m) in children(steps, n) {
                if v.insert(child_steps, fp(m)) {
                    queue.push_back((child_steps, m));
                }
            }
        }
    }

    #[test]
    fn retired_tables_are_reused() {
        // 100 states a level for 64 levels, one child each.
        let mut v = VisitedSet::new(true);
        let seeds: Vec<(u64, u128)> = (0..100).map(|n| (0, n)).collect();
        sweep(&mut v, &seeds, |steps, n| {
            if steps < 64 {
                vec![(steps + 1, n)]
            } else {
                Vec::new()
            }
        });
        // At most two levels are live at once, and each retired table is
        // taken up by the next level: a third is never allocated.
        assert_eq!(v.peak_live(), 200);
        assert_eq!(v.layers.len() + v.spare.len(), 2);
        assert_eq!((v.floor, v.base), (64, 64));
        assert!(v.spare.iter().all(|t| t.is_empty() && t.capacity() >= 100));
    }

    #[test]
    fn a_long_single_path_keeps_a_few_fingerprints() {
        let mut v = VisitedSet::new(true);
        sweep(&mut v, &[(0, 0)], |steps, n| {
            if steps < 10_000 {
                vec![(steps + 1, n + 1)]
            } else {
                Vec::new()
            }
        });
        assert_eq!(v.floor, 10_000);
        assert!(v.peak_live() <= 2, "peak {}", v.peak_live());
    }

    #[test]
    fn watchdog_successors_at_their_parents_step_count_stay_above_the_floor() {
        // Every state forks a successor one step on and a terminal one at
        // its own count, which the floor of the next generation must not
        // have passed.
        let mut v = VisitedSet::new(true);
        sweep(&mut v, &[(3, 0), (5, 1)], |steps, n| {
            if steps < 40 && n % 2 == 0 {
                vec![(steps + 1, n + 2), (steps, n + 1)]
            } else {
                Vec::new()
            }
        });
        assert!(v.floor >= 39, "floor {}", v.floor);
    }

    #[test]
    fn a_set_that_does_not_sweep_retires_nothing() {
        let mut v = VisitedSet::new(false);
        for step in 0..10u64 {
            assert!(v.insert(step, fp(1)));
            v.served(|| 0);
        }
        assert_eq!((v.floor, v.live, v.layers.len()), (0, 10, 10));
        assert!(!v.insert(0, fp(1)));
    }

    #[test]
    fn clear_forgets_everything_and_keeps_the_peak() {
        let mut v = VisitedSet::new(false);
        for step in 3..6u64 {
            assert!(v.insert(step, fp(1)));
        }
        v.clear();
        assert_eq!((v.live, v.layers.len(), v.spare.len()), (0, 0, 3));
        assert!(v.insert(0, fp(1)), "no floor survives a clear");
        assert!(v.insert(4, fp(1)));
        assert_eq!(v.peak_live(), 3);
    }

    #[test]
    #[should_panic(expected = "swept up to step 2")]
    fn an_insert_below_the_floor_panics() {
        let mut v = VisitedSet::new(true);
        assert!(v.insert(1, fp(1)));
        v.served(|| 0);
        assert!(v.insert(2, fp(2)));
        v.served(|| 0);
        let _ = v.insert(1, fp(3));
    }
}
