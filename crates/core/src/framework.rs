//! The one-call framework API of Figure 1: program + detectors + error
//! class in; proof of resilience or enumeration of escaping errors out.

use std::sync::Arc;

use sympl_asm::Program;
use sympl_check::{Explorer, MemoStore, Predicate, SearchLimits};
use sympl_cluster::Finding;
use sympl_detect::DetectorSet;
use sympl_inject::{enumerate_points, golden_run, run_point_cached, ErrorClass, PrefixCache};

/// The SymPLFIED framework: holds the program under analysis, its
/// detectors, the reference input, and the search budgets.
///
/// Mirrors the paper's Figure-1 flow: the inputs are (1) a program in the
/// generic assembly language, (2) detectors embedded via `check`
/// annotations, (3) an error class; the output is either a proof that the
/// program is resilient to the class or a comprehensive set of errors that
/// evade detection and lead to failure.
#[derive(Debug, Clone)]
pub struct Framework {
    program: Program,
    detectors: DetectorSet,
    input: Vec<i64>,
    limits: SearchLimits,
    memo: Option<Arc<MemoStore>>,
}

impl Framework {
    /// Wraps a program with no detectors, empty input, default budgets.
    #[must_use]
    pub fn new(program: Program) -> Self {
        Framework {
            program,
            detectors: DetectorSet::new(),
            input: Vec::new(),
            limits: SearchLimits::default(),
            memo: None,
        }
    }

    /// Sets the detector set the program's `check` instructions reference.
    #[must_use]
    pub fn with_detectors(mut self, detectors: DetectorSet) -> Self {
        self.detectors = detectors;
        self
    }

    /// Sets the input stream for the analyzed executions.
    #[must_use]
    pub fn with_input(mut self, input: Vec<i64>) -> Self {
        self.input = input;
        self
    }

    /// Sets the search budgets (watchdog bound, state/solution caps).
    #[must_use]
    pub fn with_limits(mut self, limits: SearchLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Attaches a cross-campaign [`MemoStore`]: every point search probes
    /// the store before expanding and records its exhausted result after,
    /// so a store warmed by a previous `enumerate_*` call (or loaded from
    /// disk) serves repeated searches without re-expansion. The caller is
    /// responsible for keying the store to this framework's program and
    /// detectors ([`MemoStore::for_campaign`]) — the CLI refuses a stale
    /// on-disk store at load time.
    #[must_use]
    pub fn with_memo(mut self, memo: Arc<MemoStore>) -> Self {
        self.memo = Some(memo);
        self
    }

    /// The program under analysis.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The detector set embedded in the analyzed executions.
    #[must_use]
    pub fn detectors(&self) -> &DetectorSet {
        &self.detectors
    }

    /// The golden (error-free) output for the configured input.
    #[must_use]
    pub fn golden_output(&self) -> Vec<i64> {
        golden_run(
            &self.program,
            &self.detectors,
            &self.input,
            &self.limits.exec,
        )
        .output_ints()
    }

    /// Enumerates every error of `class` that evades the detectors and
    /// leads to an *incorrect output* (normal halt, wrong printed values) —
    /// the paper's §6.1 query. Crashes and hangs are considered detected by
    /// the environment (exception handlers / watchdog).
    #[must_use]
    pub fn enumerate_undetected(&self, class: ErrorClass) -> Verdict {
        let expected = self.golden_output();
        self.enumerate_matching(class, &Predicate::WrongOutput { expected })
    }

    /// Enumerates every error of `class` whose outcome satisfies an
    /// arbitrary predicate (the generic `search ... such that` command).
    #[must_use]
    pub fn enumerate_matching(&self, class: ErrorClass, predicate: &Predicate) -> Verdict {
        let start = std::time::Instant::now();
        let points = enumerate_points(&self.program, &class);
        // One shared engine configuration for the whole enumeration.
        let explorer = Explorer::new(&self.program, &self.detectors)
            .with_limits(self.limits.clone())
            .with_memo(self.memo.as_deref());
        // One error-free-prefix sweep for the whole enumeration: every
        // point's prepare phase is served from first-arrival snapshots.
        let cache = PrefixCache::new(
            &self.program,
            &self.detectors,
            &self.input,
            &self.limits.exec,
        );
        let mut findings = Vec::new();
        let mut complete = true;
        let mut states_explored = 0usize;
        let mut points_activated = 0usize;
        let mut peak_frontier_len = 0usize;
        let mut peak_frontier_bytes = 0usize;
        let mut spilled_states = 0usize;
        let mut memo_hits = 0usize;
        let mut memo_states_skipped = 0usize;
        for point in &points {
            let outcome = run_point_cached(&explorer, &cache, point, predicate);
            if outcome.activated {
                points_activated += 1;
            }
            states_explored += outcome.report.states_explored;
            peak_frontier_len = peak_frontier_len.max(outcome.report.peak_frontier_len);
            peak_frontier_bytes = peak_frontier_bytes.max(outcome.report.peak_frontier_bytes);
            spilled_states += outcome.report.spilled_states;
            memo_hits += outcome.report.memo_hits;
            memo_states_skipped += outcome.report.memo_states_skipped;
            if !outcome.report.completed() && outcome.activated {
                complete = false;
            }
            for solution in outcome.report.solutions {
                findings.push(Finding {
                    task_id: 0,
                    point: *point,
                    solution,
                });
            }
        }
        let elapsed = start.elapsed();
        Verdict {
            class,
            points_examined: points.len(),
            points_activated,
            states_explored,
            states_per_second: sympl_check::SearchReport::throughput(states_explored, elapsed),
            peak_frontier_len,
            peak_frontier_bytes,
            spilled_states,
            memo_hits,
            memo_states_skipped,
            prefix_steps_saved: cache.steps_saved(),
            complete,
            findings,
        }
    }
}

/// The framework's answer for one error class.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// The error class examined.
    pub class: ErrorClass,
    /// Injection points enumerated.
    pub points_examined: usize,
    /// Points whose fault was activated on the configured input.
    pub points_activated: usize,
    /// Total states the searches explored.
    pub states_explored: usize,
    /// Engine throughput over the whole enumeration (states per wall-clock
    /// second).
    pub states_per_second: f64,
    /// Largest frontier (in states, including any spilled to disk) any
    /// point search held at once.
    pub peak_frontier_len: usize,
    /// Largest approximate in-RAM frontier footprint (bytes) any point
    /// search held at once — the figure a
    /// `SearchLimits::max_frontier_bytes` budget bounds.
    pub peak_frontier_bytes: usize,
    /// Frontier states pushed past the RAM window across all point
    /// searches, stored or not (a state-capped BFS counts the states beyond
    /// its cap without writing them).
    pub spilled_states: usize,
    /// Point searches served whole from the attached [`MemoStore`]
    /// (0 without one). Served searches replay their recorded statistics,
    /// so `states_explored` already includes the skipped states.
    pub memo_hits: usize,
    /// States the memo hits did not have to re-expand.
    pub memo_states_skipped: usize,
    /// Concrete error-free prefix steps served from the enumeration's
    /// prefix cache instead of re-executed per point.
    pub prefix_steps_saved: u64,
    /// Whether every activated point's search ran to completion.
    pub complete: bool,
    /// All predicate-matching outcomes (empty for a resilient program).
    pub findings: Vec<Finding>,
}

impl Verdict {
    /// Whether this is a *proof* of resilience: complete exploration with
    /// no escaping error (paper output 1: "proof that the program with the
    /// embedded detectors is resilient to the error class considered").
    #[must_use]
    pub fn is_resilient(&self) -> bool {
        self.complete && self.findings.is_empty()
    }

    /// Human-readable summary.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut frontier = if self.spilled_states > 0 {
            format!(
                ", frontier peak {} states / ~{} bytes in RAM ({} spilled)",
                self.peak_frontier_len, self.peak_frontier_bytes, self.spilled_states
            )
        } else {
            format!(
                ", frontier peak {} states / ~{} bytes",
                self.peak_frontier_len, self.peak_frontier_bytes
            )
        };
        if self.memo_hits > 0 {
            frontier.push_str(&format!(
                ", memo served {} search(es) / {} states",
                self.memo_hits, self.memo_states_skipped
            ));
        }
        if self.is_resilient() {
            format!(
                "PROOF: resilient to {} ({} points, {} activated, {} states explored \
                 at {:.0} states/s{frontier})",
                self.class,
                self.points_examined,
                self.points_activated,
                self.states_explored,
                self.states_per_second,
            )
        } else {
            format!(
                "{} escaping error(s) found for {} ({} points, {} activated, {} states \
                 at {:.0} states/s{frontier}{})",
                self.findings.len(),
                self.class,
                self.points_examined,
                self.points_activated,
                self.states_explored,
                self.states_per_second,
                if self.complete {
                    ""
                } else {
                    "; search truncated"
                }
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympl_asm::parse_program;
    use sympl_detect::Detector;
    use sympl_machine::ExecLimits;

    #[test]
    fn undetected_errors_found_without_detectors() {
        let p = parse_program("read $1\naddi $2, $1, 1\nprint $2\nhalt").unwrap();
        let fw = Framework::new(p).with_input(vec![41]);
        assert_eq!(fw.golden_output(), vec![42]);
        let verdict = fw.enumerate_undetected(ErrorClass::RegisterFile);
        assert!(!verdict.is_resilient());
        assert!(!verdict.findings.is_empty());
        assert!(verdict.summary().contains("escaping"));
    }

    #[test]
    fn detection_window_after_check_is_exposed() {
        // The detector pins $1 = 7, but an error striking *between* the
        // check and the print still escapes — exactly the corner case
        // SymPLFIED exists to expose.
        let p = parse_program("mov $1, 7\ncheck 1\nprint $1\nhalt").unwrap();
        let mut detectors = DetectorSet::new();
        detectors.insert(Detector::parse("det(1, $(1), ==, (7))").unwrap());
        let fw = Framework::new(p).with_detectors(detectors);
        let verdict = fw.enumerate_undetected(ErrorClass::RegisterFile);
        assert!(!verdict.is_resilient());
        assert_eq!(verdict.findings.len(), 1);
        assert_eq!(
            verdict.findings[0].point.breakpoint, 2,
            "the only escaping error strikes at the print, after the check"
        );
    }

    #[test]
    fn program_without_register_dependent_output_is_resilient() {
        // The stored value is checked and never printed: register errors
        // cannot corrupt the output, and the framework proves it.
        let p = parse_program("mov $1, 7\ncheck 1\nst $1, 100($0)\nprints \"ok\"\nhalt").unwrap();
        let mut detectors = DetectorSet::new();
        detectors.insert(Detector::parse("det(1, $(1), ==, (7))").unwrap());
        let fw = Framework::new(p).with_detectors(detectors);
        let verdict = fw.enumerate_undetected(ErrorClass::RegisterFile);
        assert!(verdict.is_resilient(), "{}", verdict.summary());
        assert!(verdict.summary().contains("PROOF"));
    }

    #[test]
    fn memoized_framework_reruns_are_served() {
        let p = parse_program("read $1\naddi $2, $1, 1\nprint $2\nhalt").unwrap();
        let fw = Framework::new(p).with_input(vec![41]);
        let store = Arc::new(MemoStore::for_campaign(fw.program(), fw.detectors()));
        let fw = fw.with_memo(Arc::clone(&store));
        let cold = fw.enumerate_undetected(ErrorClass::RegisterFile);
        let warm = fw.enumerate_undetected(ErrorClass::RegisterFile);
        assert_eq!(cold.memo_hits, 0, "first enumeration finds an empty store");
        assert!(!store.is_empty(), "exhausted searches were recorded");
        assert!(warm.memo_hits > 0, "rerun is served from the store");
        assert_eq!(cold.findings, warm.findings, "served results are exact");
        assert_eq!(cold.states_explored, warm.states_explored);
        assert!(warm.prefix_steps_saved > 0, "prefix cache is always on");
        assert!(warm.summary().contains("memo served"));
    }

    #[test]
    fn custom_predicate_enumeration() {
        let p = parse_program("read $1\nprint $1\nhalt").unwrap();
        let fw = Framework::new(p)
            .with_input(vec![3])
            .with_limits(SearchLimits {
                exec: ExecLimits::with_max_steps(100),
                ..SearchLimits::default()
            });
        let verdict =
            fw.enumerate_matching(ErrorClass::RegisterFile, &Predicate::OutputContainsErr);
        assert_eq!(
            verdict.points_examined, 1,
            "only `print $1` reads a register"
        );
        assert_eq!(verdict.findings.len(), 1);
    }
}
