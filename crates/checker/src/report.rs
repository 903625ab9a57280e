//! Search results: solutions with witness traces, plus exploration
//! statistics.

use std::fmt;
use std::time::Duration;

use sympl_machine::{MachineState, Status};

/// One terminal state satisfying the search predicate, with its witness
/// trace — the program-counter path from the initial state, the paper's
/// "execution trace of how the error evaded detection".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    /// The terminal machine state.
    pub state: MachineState,
    /// Program counters visited from the initial state to this terminal,
    /// inclusive of the initial PC.
    pub trace: Vec<usize>,
}

impl Solution {
    /// Renders the trace as `pc0 -> pc1 -> …`, eliding long middles.
    #[must_use]
    pub fn trace_summary(&self, max_shown: usize) -> String {
        let pcs: Vec<String> = if self.trace.len() <= max_shown || max_shown < 4 {
            self.trace.iter().map(ToString::to_string).collect()
        } else {
            let head = max_shown / 2;
            let tail = max_shown - head - 1;
            let mut v: Vec<String> = self.trace[..head].iter().map(ToString::to_string).collect();
            v.push(format!("…({} more)…", self.trace.len() - head - tail));
            v.extend(
                self.trace[self.trace.len() - tail..]
                    .iter()
                    .map(ToString::to_string),
            );
            v
        };
        pcs.join(" -> ")
    }
}

/// Counts of terminal states by outcome class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Normal halts.
    pub halted: usize,
    /// Exceptions (crashes).
    pub crashed: usize,
    /// Watchdog timeouts (hangs).
    pub hung: usize,
    /// Detector firings.
    pub detected: usize,
}

impl OutcomeCounts {
    /// Records a terminal state.
    pub fn record(&mut self, state: &MachineState) {
        match state.status() {
            Status::Halted => self.halted += 1,
            Status::Exception(_) => self.crashed += 1,
            Status::TimedOut => self.hung += 1,
            Status::Detected(_) => self.detected += 1,
            Status::Running => {}
        }
    }

    /// Total terminal states recorded.
    #[must_use]
    pub fn total(&self) -> usize {
        self.halted + self.crashed + self.hung + self.detected
    }

    /// Adds another set of counts (pooling per-worker or per-task tallies).
    pub fn absorb(&mut self, other: &OutcomeCounts) {
        self.halted += other.halted;
        self.crashed += other.crashed;
        self.hung += other.hung;
        self.detected += other.detected;
    }
}

impl fmt::Display for OutcomeCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "halted={} crashed={} hung={} detected={}",
            self.halted, self.crashed, self.hung, self.detected
        )
    }
}

/// The result of one exhaustive search.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchReport {
    /// Terminal states matching the predicate, in BFS discovery order.
    pub solutions: Vec<Solution>,
    /// States expanded (dequeued) during the search.
    pub states_explored: usize,
    /// Terminal states reached (matching or not).
    pub terminals: OutcomeCounts,
    /// Successors skipped because an identical state was already seen.
    pub duplicate_hits: usize,
    /// Whether the frontier emptied — the state space was fully explored
    /// within the watchdog bound. With zero solutions this constitutes the
    /// paper's *proof* that the program (with its detectors) is resilient
    /// to the injected error class under the given bounds.
    pub exhausted: bool,
    /// The state budget was hit.
    pub hit_state_cap: bool,
    /// The solution cap was hit (paper §6.1 capped each task at 10).
    pub hit_solution_cap: bool,
    /// The wall-clock budget was hit (paper: 30-minute task budget).
    pub hit_time_cap: bool,
    /// Wall-clock duration of the search.
    pub elapsed: Duration,
    /// Engine throughput: states expanded per wall-clock second. Populated
    /// by the Explorer at the end of a search (and recomputed by
    /// [`SearchReport::merge`]); campaign summaries and the benchmark
    /// table binaries surface it so BENCH_*.json entries can track engine
    /// speed across revisions.
    pub states_per_second: f64,
    /// Worker threads that executed the search: always 1 for
    /// [`crate::Explorer`] (0 only in empty default reports that ran no
    /// search at all). Kept because the benchmark harness reads it.
    pub workers: usize,
    /// Work-steal operations: always 0, as every search is sequential.
    /// Kept because the benchmark harness reads it.
    pub steals: usize,
    /// Largest number of states the frontier held at once (including any
    /// spilled to disk). This is the open set, stored or not: a
    /// state-capped BFS drops the states beyond its cap but still counts
    /// them here (see [`crate::frontier`]).
    pub peak_frontier_len: usize,
    /// Largest approximate number of bytes of frontier state held **in
    /// RAM** at once ([`MachineState::approx_bytes`] per queued state;
    /// spilled states excluded). This is the figure a
    /// [`crate::SearchLimits::max_frontier_bytes`] budget bounds — compare
    /// it across a spilling and an unbounded run of the same search to see
    /// the spill working. Like `peak_frontier_len` it covers the open set,
    /// stored or not, so a state-capped BFS reports the bytes its dropped
    /// states would have held.
    pub peak_frontier_bytes: usize,
    /// States the frontier pushed past its RAM window into disk segments
    /// over the whole search (0 unless a `max_frontier_bytes` budget forced
    /// spilling). Like `peak_frontier_len` this is the open set, stored or
    /// not: a state-capped BFS counts the states beyond its cap here but
    /// never writes them (see [`crate::frontier`]).
    pub spilled_states: usize,
    /// Searches answered from a [`crate::MemoStore`] instead of expanding
    /// (0 or 1 for a single search; campaign pooling sums them). A memo hit
    /// replays the stored exhausted-subtree summary verbatim, so every
    /// other statistic in a served report equals the original search's.
    pub memo_hits: usize,
    /// States the memo hit saved: the `states_explored` figure of the
    /// stored search, which this run did *not* re-expand. `states_explored`
    /// still reports the replayed figure (summary fidelity), so the saved
    /// work is only visible here.
    pub memo_states_skipped: usize,
}

// `states_per_second` is a pure function of `states_explored`/`elapsed`
// and never NaN (`throughput` guards the division), so the derived
// `PartialEq` is reflexive and `Eq` is sound.
impl Eq for SearchReport {}

impl SearchReport {
    /// Whether this search proves resilience: complete exploration with no
    /// predicate match.
    #[must_use]
    pub fn is_proof_of_resilience(&self) -> bool {
        self.exhausted && self.solutions.is_empty()
    }

    /// Whether the search ran to completion (was not truncated by a cap).
    #[must_use]
    pub fn completed(&self) -> bool {
        self.exhausted || self.hit_solution_cap
    }

    /// Merges another report (used when pooling sharded searches).
    pub fn merge(&mut self, other: SearchReport) {
        self.solutions.extend(other.solutions);
        self.states_explored += other.states_explored;
        self.terminals.absorb(&other.terminals);
        self.duplicate_hits += other.duplicate_hits;
        self.workers = self.workers.max(other.workers);
        self.steals += other.steals;
        // Sharded searches run one after another (or independently), so the
        // widest single frontier is the meaningful pooled figure.
        self.peak_frontier_len = self.peak_frontier_len.max(other.peak_frontier_len);
        self.peak_frontier_bytes = self.peak_frontier_bytes.max(other.peak_frontier_bytes);
        self.spilled_states += other.spilled_states;
        self.memo_hits += other.memo_hits;
        self.memo_states_skipped += other.memo_states_skipped;
        self.exhausted &= other.exhausted;
        self.hit_state_cap |= other.hit_state_cap;
        self.hit_solution_cap |= other.hit_solution_cap;
        self.hit_time_cap |= other.hit_time_cap;
        self.elapsed += other.elapsed;
        self.states_per_second = Self::throughput(self.states_explored, self.elapsed);
    }

    /// States-per-second over a measured interval (0 when no time has
    /// been observed, so idle reports do not divide by zero).
    #[must_use]
    pub fn throughput(states: usize, elapsed: Duration) -> f64 {
        let secs = elapsed.as_secs_f64();
        if secs > 0.0 {
            states as f64 / secs
        } else {
            0.0
        }
    }
}

impl fmt::Display for SearchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "search: {} solution(s), {} states explored ({:.0} states/s), {} duplicates, \
             terminals: {}",
            self.solutions.len(),
            self.states_explored,
            self.states_per_second,
            self.duplicate_hits,
            self.terminals
        )?;
        writeln!(
            f,
            "frontier: peak {} state(s) / ~{} bytes in RAM, {} spilled",
            self.peak_frontier_len, self.peak_frontier_bytes, self.spilled_states
        )?;
        if self.memo_hits > 0 {
            writeln!(
                f,
                "memo: {} hit(s) served {} state(s) without expansion",
                self.memo_hits, self.memo_states_skipped
            )?;
        }
        if self.is_proof_of_resilience() {
            writeln!(f, "PROOF: program is resilient to this error (bounded)")?;
        }
        for (i, sol) in self.solutions.iter().enumerate() {
            writeln!(
                f,
                "  #{i}: status={} output=`{}` trace={}",
                sol.state.status(),
                sol.state.rendered_output(),
                sol.trace_summary(12)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_counts_record_all_statuses() {
        use sympl_machine::Exception;
        let mut counts = OutcomeCounts::default();
        let mut s = MachineState::new();
        s.set_status(Status::Halted);
        counts.record(&s);
        s.set_status(Status::Exception(Exception::DivByZero));
        counts.record(&s);
        s.set_status(Status::TimedOut);
        counts.record(&s);
        s.set_status(Status::Detected(1));
        counts.record(&s);
        assert_eq!(counts.total(), 4);
        assert_eq!(
            counts,
            OutcomeCounts {
                halted: 1,
                crashed: 1,
                hung: 1,
                detected: 1
            }
        );
    }

    #[test]
    fn trace_summary_elides_long_traces() {
        let sol = Solution {
            state: MachineState::new(),
            trace: (0..100).collect(),
        };
        let text = sol.trace_summary(8);
        assert!(text.contains("more"));
        assert!(text.starts_with("0 -> 1"));
        assert!(text.ends_with("98 -> 99"));
        let short = Solution {
            state: MachineState::new(),
            trace: vec![0, 1, 2],
        };
        assert_eq!(short.trace_summary(8), "0 -> 1 -> 2");
    }

    #[test]
    fn proof_of_resilience_requires_exhaustion() {
        let mut r = SearchReport {
            exhausted: true,
            ..SearchReport::default()
        };
        assert!(r.is_proof_of_resilience());
        r.solutions.push(Solution {
            state: MachineState::new(),
            trace: vec![],
        });
        assert!(!r.is_proof_of_resilience());
        r.exhausted = false;
        assert!(!r.is_proof_of_resilience());
    }

    #[test]
    fn merge_accumulates() {
        let mut a = SearchReport {
            states_explored: 10,
            exhausted: true,
            ..SearchReport::default()
        };
        let b = SearchReport {
            states_explored: 5,
            exhausted: false,
            hit_time_cap: true,
            ..SearchReport::default()
        };
        a.merge(b);
        assert_eq!(a.states_explored, 15);
        assert!(!a.exhausted);
        assert!(a.hit_time_cap);
    }
}
