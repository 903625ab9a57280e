//! The reusable exploration engine behind every campaign.
//!
//! [`Explorer`] packages the pieces a search task needs — program, detector
//! set, budgets, and a frontier policy — so that `sympl-inject`'s
//! per-point searches, `sympl-cluster`'s worker loop, `sympl-ssim`'s
//! symbolic cross-validation, and `symplfied::Framework` all drive the same
//! engine instead of each re-implementing the loop around `search()`.
//!
//! Engine properties:
//!
//! * **Fingerprint deduplication.** The visited set stores 128-bit
//!   [`Fingerprint`]s (16 bytes per state) rather than whole
//!   [`MachineState`] values; combined with the copy-on-write state
//!   representation this is what lets one task sweep millions of states.
//!   `fingerprint()` is O(1) at the enqueue call site — the state carries
//!   rolling Zobrist-style component digests updated per write — so dedup
//!   costs O(writes) along a path, never O(|state|) per successor. The set
//!   keeps one table per watchdog step count, and a state is a duplicate
//!   when it matches on `(steps, fingerprint)`. On a queue that serves in
//!   push order (BFS, in RAM or spilling) the search forgets each layer
//!   once no later state can reach it, so the set holds a few step levels,
//!   not the whole search (see `visited.rs`).
//! * **Single insertion point.** A state's fingerprint enters the visited
//!   set exactly once, when the state is enqueued (the old `search()`
//!   redundantly re-inserted on dequeue as well).
//! * **One move per successor.** The search's open set (visited set,
//!   witness-trace arena and frontier) is the stepper's
//!   [`SuccessorSink`]: `step_into` hands a step's one successor straight
//!   through fingerprint, visited-set insert and trace node into
//!   [`FrontierQueue::push`], with no buffer between. A fork rule's cases
//!   are gathered first, in one buffer kept for the whole search, and then
//!   taken in the order the rule made them, so successor order — and with
//!   it every count, trace and digest — is the buffered engine's.
//! * **Pluggable frontier.** The engine drives its frontier exclusively
//!   through the [`FrontierQueue`] trait: FIFO/LIFO, best-first, iterative
//!   deepening, and the disk-spilling window all plug in via
//!   [`SearchLimits::policy`] / [`SearchLimits::max_frontier_bytes`] with
//!   no engine change (see [`crate::frontier`] for the policies and their
//!   determinism contracts). Iterative deepening's rounds are the one
//!   engine-visible wrinkle: when the frontier drains,
//!   [`FrontierQueue::next_round`] may hand back the root seeds, and the
//!   engine resets its visited set (the per-round dedup reset) plus the
//!   per-round terminal/solution tallies before re-seeding.
//! * **Budget accounting.** State, solution, and wall-clock budgets are
//!   tracked per [`SearchLimits`] and reported in the [`SearchReport`],
//!   along with throughput and peak-frontier-footprint figures
//!   (`peak_frontier_len` / `peak_frontier_bytes` / `spilled_states`) for
//!   campaign summaries and benchmark tables. The state cap also reaches
//!   the frontier as a pop budget, so a state-capped BFS stores only the
//!   states it will expand (see [`crate::frontier`]'s state-capped BFS
//!   section); the report reads as if every queued state had been kept.
//!
//! [`Fingerprint`]: sympl_machine::Fingerprint

use std::time::Instant;

use sympl_asm::Program;
use sympl_detect::DetectorSet;
use sympl_machine::{ExecLimits, MachineState, SuccessorSink};

use crate::memo::{probe_digest, MemoStore, SubtreeSummary};
use crate::visited::VisitedSet;
use crate::{
    FrontierPolicy, FrontierQueue, OutcomeCounts, Predicate, SearchLimits, SearchReport, Solution,
};

/// A reusable, configured exploration engine over one program + detector
/// set. Construction is cheap; campaigns build one per task (or per point
/// when budgets shrink as the task progresses).
#[derive(Debug, Clone)]
pub struct Explorer<'a> {
    program: &'a Program,
    detectors: &'a DetectorSet,
    limits: SearchLimits,
    /// A policy chosen via [`Explorer::with_policy`]. Kept separate from
    /// `limits.policy` so the two builders compose in either order — a
    /// later `with_limits` cannot silently revert an explicit
    /// `with_policy` choice.
    policy_override: Option<FrontierPolicy>,
    /// An attached memo store ([`Explorer::with_memo`]): searches are
    /// probed against it before expanding and recorded into it when they
    /// finish deterministically. `None` (the default) explores
    /// unconditionally.
    memo: Option<&'a MemoStore>,
}

impl<'a> Explorer<'a> {
    /// An engine with default budgets and a BFS frontier.
    #[must_use]
    pub fn new(program: &'a Program, detectors: &'a DetectorSet) -> Self {
        Explorer {
            program,
            detectors,
            limits: SearchLimits::default(),
            policy_override: None,
            memo: None,
        }
    }

    /// Attaches (or detaches) a memoization store. With a store attached,
    /// [`Explorer::explore`] first derives the search's probe digest
    /// ([`crate::probe_digest`]) and serves a hit without expanding a
    /// single state; on a miss it explores normally and records its
    /// summary for later identical searches. Because this traversal is
    /// deterministic, even state- and solution-capped reports are
    /// reproducible and recordable — only time-capped searches (where the
    /// wall clock, not the search's identity, decides the cut) are never
    /// recorded. Closure-backed [`Predicate::Custom`] searches bypass the
    /// store (their identity cannot be encoded). Served reports replay
    /// the recorded statistics and truncation flags verbatim, so
    /// memoization never changes a search's outcome — only
    /// [`SearchReport::memo_hits`] / [`SearchReport::memo_states_skipped`]
    /// reveal it.
    #[must_use]
    pub fn with_memo(mut self, memo: Option<&'a MemoStore>) -> Self {
        self.memo = memo;
        self
    }

    /// The attached memo store, if any.
    #[must_use]
    pub fn memo(&self) -> Option<&'a MemoStore> {
        self.memo
    }

    /// Accepted and ignored: every search runs on this one sequential
    /// engine. Kept so existing callers, such as the benchmark harness
    /// under `benchmark/`, still build.
    #[must_use]
    pub fn with_workers_hint(self, _workers: Option<usize>) -> Self {
        self
    }

    /// Replaces the search budgets.
    #[must_use]
    pub fn with_limits(mut self, limits: SearchLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Replaces the frontier policy. Overrides [`SearchLimits::policy`]
    /// whether called before or after [`Explorer::with_limits`].
    #[must_use]
    pub fn with_policy(mut self, policy: FrontierPolicy) -> Self {
        self.policy_override = Some(policy);
        self
    }

    /// The effective frontier policy: an explicit
    /// [`Explorer::with_policy`] choice, else [`SearchLimits::policy`].
    #[must_use]
    pub fn policy(&self) -> FrontierPolicy {
        self.policy_override.unwrap_or(self.limits.policy)
    }

    /// The program under exploration.
    #[must_use]
    pub fn program(&self) -> &'a Program {
        self.program
    }

    /// The detector set the program's `check` instructions reference.
    #[must_use]
    pub fn detectors(&self) -> &'a DetectorSet {
        self.detectors
    }

    /// The configured search budgets.
    #[must_use]
    pub fn limits(&self) -> &SearchLimits {
        &self.limits
    }

    /// The per-path execution bounds (watchdog + fork caps).
    #[must_use]
    pub fn exec_limits(&self) -> &ExecLimits {
        &self.limits.exec
    }

    /// Exhaustively explores the state space from `seeds`, collecting
    /// terminal states that satisfy `predicate`.
    ///
    /// Every distinct machine state is expanded once (deduplicated by
    /// fingerprint); the exploration stops early when a state, solution,
    /// or time budget is exhausted, and the report records which. Under an
    /// iterative-deepening policy, "once" holds per round, and the report's
    /// terminal counts and solutions describe the final (deepest) round —
    /// complete whenever the search exhausts (see [`crate::frontier`]).
    #[must_use]
    pub fn explore(&self, seeds: Vec<MachineState>, predicate: &Predicate) -> SearchReport {
        let Some(store) = self.memo else {
            return self.explore_core(seeds, predicate).0;
        };
        let Some(digest) = probe_digest(predicate, &self.limits, self.policy(), &seeds) else {
            // Custom predicate: no encodable identity, bypass the store.
            return self.explore_core(seeds, predicate).0;
        };
        if let Some(served) = store.serve(digest) {
            return served;
        }
        let (report, max_depth, _) = self.explore_core(seeds, predicate);
        // The sequential traversal is deterministic, so a state- or
        // solution-capped report truncates at the same state on every
        // identical search and is just as replayable as an exhausted one.
        // Only a wall-clock stop depends on something outside the probe
        // digest and must never be recorded.
        if !report.hit_time_cap {
            store.record(digest, SubtreeSummary::from_report(&report, max_depth));
        }
        report
    }

    /// Forwards to [`Explorer::explore`]. Kept so existing callers, such
    /// as the benchmark harness under `benchmark/`, still build.
    #[must_use]
    pub fn explore_auto(&self, seeds: Vec<MachineState>, predicate: &Predicate) -> SearchReport {
        self.explore(seeds, predicate)
    }

    /// The expansion loop behind [`Explorer::explore`], memo-blind.
    /// Returns the report, the subtree depth (the deepest terminal's step
    /// count beyond the shallowest seed's) and the most fingerprints the
    /// visited set held at once.
    fn explore_core(
        &self,
        seeds: Vec<MachineState>,
        predicate: &Predicate,
    ) -> (SearchReport, u64, usize) {
        let start = Instant::now();
        let mut report = SearchReport::default();
        let mut terminals = OutcomeCounts::default();
        let base_steps = seeds.iter().map(MachineState::steps).min().unwrap_or(0);
        let mut deepest = base_steps;

        // The state cap doubles as the frontier's pop budget: a queue that
        // pops in push order need not store what it will never serve.
        let frontier = self
            .policy()
            .build_budgeted(self.limits.max_frontier_bytes, self.limits.max_states);
        let mut open = OpenSet::new(frontier);

        for s in seeds {
            open.seed(s);
        }
        // Root entries occupy the arena prefix; iterative-deepening rounds
        // truncate back to here so dead trace nodes from earlier rounds
        // don't accumulate in the one mode sold as memory-minimal.
        let root_arena_len = open.arena.len();
        report.peak_frontier_len = open.frontier.len();
        report.peak_frontier_bytes = open.frontier.approx_bytes();

        // Check the time budget only every few expansions; Instant::now()
        // is cheap but not free, and tasks expand millions of states.
        const TIME_CHECK_MASK: usize = 0x3F;

        // Decode once per search, then dispatch over the dense IR straight
        // into the open set.
        let decoded = self.program.decoded();

        // Whether the loop exited by sweeping the space (frontier drained
        // and no further round demanded), as opposed to a cap break.
        let mut swept = false;
        'rounds: loop {
            while let Some((state, idx)) = open.frontier.pop() {
                open.visited.served(|| open.frontier.len());
                if report.states_explored >= self.limits.max_states {
                    report.hit_state_cap = true;
                    break 'rounds;
                }
                if let Some(budget) = self.limits.max_time {
                    if report.states_explored & TIME_CHECK_MASK == 0 && start.elapsed() >= budget {
                        report.hit_time_cap = true;
                        break 'rounds;
                    }
                }
                report.states_explored += 1;

                if state.status().is_terminal() {
                    terminals.record(&state);
                    deepest = deepest.max(state.steps());
                    if predicate.matches(&state) {
                        report.solutions.push(Solution {
                            trace: reconstruct_trace(&open.arena, idx),
                            state,
                        });
                        if report.solutions.len() >= self.limits.max_solutions {
                            report.hit_solution_cap = true;
                            break 'rounds;
                        }
                    }
                    continue;
                }

                open.parent = trace_u32(idx, "arena index");
                state.step_into(decoded, self.detectors, &self.limits.exec, &mut open);
                report.peak_frontier_len = report.peak_frontier_len.max(open.frontier.len());
                report.peak_frontier_bytes =
                    report.peak_frontier_bytes.max(open.frontier.approx_bytes());
            }

            // States still counted but not served lie beyond the pop
            // budget: this is where an unbudgeted queue would have handed
            // out the (cap+1)-th state.
            if !open.frontier.is_empty() {
                report.hit_state_cap = true;
                break 'rounds;
            }

            // The frontier drained. A restarting policy (iterative
            // deepening) may demand another round from the roots: reset the
            // visited set (per-round dedup reset), the per-round tallies,
            // and the arena's non-root suffix (its entries are unreachable
            // once the round's solutions are cleared), then re-seed through
            // the normal dedup path. `None` means the space is swept within
            // the final bound — the loop's only complete exit.
            match open.frontier.next_round() {
                Some(roots) => {
                    open.visited.clear();
                    terminals = OutcomeCounts::default();
                    report.solutions.clear();
                    open.arena.truncate(root_arena_len);
                    for (s, meta) in roots {
                        if open.visited.insert(s.steps(), s.fingerprint()) {
                            open.frontier.seed(s, meta);
                        }
                    }
                }
                None => {
                    swept = true;
                    break;
                }
            }
        }

        report.duplicate_hits = open.duplicate_hits;
        report.exhausted =
            swept && !report.hit_state_cap && !report.hit_solution_cap && !report.hit_time_cap;
        report.spilled_states = open.frontier.spilled_states();
        report.terminals = terminals;
        report.elapsed = start.elapsed();
        report.states_per_second = SearchReport::throughput(report.states_explored, report.elapsed);
        report.workers = 1;
        (report, deepest - base_steps, open.visited.peak_live())
    }
}

/// One search's open set: what a state passes through on its way to being
/// expanded. It is the stepper's successor sink, so a successor moves once,
/// from `step_into` through its fingerprint, the visited set and the
/// witness-trace arena into the frontier, with no buffer between.
struct OpenSet {
    /// Fingerprints only (16 bytes per visited state), one table per step
    /// count; a queue that serves in push order lets it forget the layers
    /// below its step floor.
    visited: VisitedSet,
    /// Parent arena for witness traces: (parent index or ROOT, pc), one
    /// entry per state ever queued. 32-bit cells halve what is otherwise
    /// the search's largest allocation; 2^32 entries would take 32 GiB of
    /// arena alone. Survives iterative-deepening rounds: indices recorded
    /// in round 0 stay valid as re-seed metadata.
    arena: Vec<(u32, u32)>,
    frontier: Box<dyn FrontierQueue<usize>>,
    /// The arena index of the state being expanded.
    parent: u32,
    /// Successors that were already visited.
    duplicate_hits: usize,
    /// Where a fork rule gathers its cases before they are taken in order;
    /// one buffer for the whole search.
    forks: Vec<MachineState>,
}

impl OpenSet {
    fn new(frontier: Box<dyn FrontierQueue<usize>>) -> Self {
        OpenSet {
            visited: VisitedSet::new(frontier.serves_in_push_order()),
            arena: Vec::new(),
            frontier,
            parent: ROOT,
            duplicate_hits: 0,
            forks: Vec::new(),
        }
    }

    /// Queues a root state unless an equal one is queued already.
    fn seed(&mut self, s: MachineState) {
        if self.visited.insert(s.steps(), s.fingerprint()) {
            let idx = push_trace_node(&mut self.arena, ROOT, s.pc());
            self.frontier.seed(s, idx);
        }
    }
}

impl SuccessorSink for OpenSet {
    #[inline]
    fn put(&mut self, succ: MachineState) {
        // The single insertion point: enqueue time.
        if self.visited.insert(succ.steps(), succ.fingerprint()) {
            let idx = push_trace_node(&mut self.arena, self.parent, succ.pc());
            self.frontier.push(succ, idx);
        } else {
            self.duplicate_hits += 1;
        }
    }

    fn put_forks(&mut self, gather: impl FnOnce(&mut Vec<MachineState>)) {
        let mut forks = std::mem::take(&mut self.forks);
        gather(&mut forks);
        for succ in forks.drain(..) {
            self.put(succ);
        }
        self.forks = forks;
    }
}

/// The parent marker of a seed's arena entry.
const ROOT: u32 = u32::MAX;

/// Appends a trace node and returns its index.
fn push_trace_node(arena: &mut Vec<(u32, u32)>, parent: u32, pc: usize) -> usize {
    let idx = arena.len();
    // Index ROOT itself is reserved as the marker.
    assert!(
        idx < ROOT as usize,
        "witness-trace arena is full ({idx} entries)"
    );
    arena.push((parent, trace_u32(pc, "pc")));
    idx
}

fn reconstruct_trace(arena: &[(u32, u32)], mut idx: usize) -> Vec<usize> {
    let mut trace = Vec::new();
    loop {
        let (parent, pc) = arena[idx];
        trace.push(pc as usize);
        if parent == ROOT {
            break;
        }
        idx = parent as usize;
    }
    trace.reverse();
    trace
}

fn trace_u32(n: usize, what: &str) -> u32 {
    u32::try_from(n).unwrap_or_else(|_| panic!("witness-trace {what} {n} does not fit in 32 bits"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PriorityHeuristic;
    use std::time::Duration;
    use sympl_asm::{parse_program, Reg};
    use sympl_symbolic::Value;

    fn dets() -> DetectorSet {
        DetectorSet::new()
    }

    /// Every decoded op kind, each reachable with concrete and `err`
    /// operands: forking compares, a division by a symbolic divisor, an
    /// erroneous indirect jump, loads and stores through an erroneous
    /// pointer, and both detector ids.
    const EVERY_OP: &str = "\
        nop
        mov $2, 8
        mov $3, $1
        addi $4, $1, 1
        div $5, $2, $1
        setgt $6, $1, 3
        setlt $6, $1, $2
        beq $1, 5, far
        bne $1, $2, far
        jmp far
    far:
        jal sub
        ld $7, 0($1)
        ld $7, 8($2)
        st $1, 0($1)
        st $3, 0($2)
        read $8
        print $1
        prints \"x\"
        check 1
        check 2
        halt
    sub:
        jr $1
    ";

    /// The open set is the stepper's sink: what it queues, records and
    /// counts as duplicate must be what a loop that drains a
    /// `SuccessorBuf` through its own visited set and arena gets, in the
    /// same order, with rolling fingerprints equal to from-scratch ones.
    #[test]
    fn successor_path_open_set_takes_what_a_successor_buf_stores() {
        use std::collections::{HashSet, VecDeque};
        use std::mem::discriminant;
        use sympl_detect::Detector;
        use sympl_machine::{OutItem, SuccessorBuf};
        use sympl_symbolic::{Constraint, Location};

        let program = parse_program(EVERY_OP).unwrap();
        let kinds: HashSet<_> = (program.decoded().ops().iter()).map(discriminant).collect();
        assert_eq!(kinds.len(), 19, "every decoded op kind is in the program");
        let mut dets = DetectorSet::new();
        dets.insert(Detector::parse("det(1, $(2), >=, (3))").unwrap());
        dets.insert(Detector::parse("det(2, $(3), ==, ($1))").unwrap());
        let start = |regs: [Value; 3], constrained: bool| {
            let mut s = MachineState::with_input(vec![7, -2]);
            s.load_memory((0..8).map(|i| (i * 8, i as i64 - 3)));
            s.push_output(OutItem::Val(Value::Int(1)));
            for (i, v) in regs.into_iter().enumerate() {
                s.set_reg(Reg::r(i as u8 + 1), v);
            }
            if constrained && regs[0].is_err() {
                let _ = s
                    .constraints_mut()
                    .constrain(Location::reg(1), Constraint::Gt(0));
            }
            s
        };
        let (int, err) = (Value::Int(2), Value::Err);
        let mut starts = Vec::new();
        for regs in [
            [int, int, int],
            [err, int, int],
            [err, err, err],
            [int, err, err],
        ] {
            starts.push(start(regs, false));
            starts.push(start(regs, true));
        }

        let mut open = OpenSet::new(FrontierPolicy::Bfs.build_budgeted(None, usize::MAX));
        let mut buf = SuccessorBuf::new();
        let mut visited = HashSet::new();
        let mut arena = Vec::new();
        let mut duplicate_hits = 0;
        let (mut singles, mut forks) = (0usize, 0usize);
        for track_constraints in [true, false] {
            let mut exec = ExecLimits::with_max_steps(3);
            exec.track_constraints = track_constraints;
            for pc in 0..=program.instrs().len() {
                for base in &starts {
                    for steps in [0, exec.max_steps] {
                        let mut s = base.clone();
                        s.set_pc(pc);
                        for _ in 0..steps {
                            s.bump_steps();
                        }
                        // Step each state twice: the second pass is all
                        // duplicates.
                        for _ in 0..2 {
                            let parent = trace_u32(arena.len() / 3, "parent");
                            open.parent = parent;
                            s.clone()
                                .step_into(program.decoded(), &dets, &exec, &mut open);
                            buf.clear();
                            s.clone()
                                .step_into(program.decoded(), &dets, &exec, &mut buf);
                            match buf.len() {
                                1 => singles += 1,
                                _ => forks += 1,
                            }
                            let mut expected = VecDeque::new();
                            for succ in buf.drain() {
                                if visited.insert((succ.steps(), succ.fingerprint())) {
                                    expected.push_back((succ.clone(), arena.len()));
                                    arena.push((parent, trace_u32(succ.pc(), "pc")));
                                } else {
                                    duplicate_hits += 1;
                                }
                            }
                            assert_eq!(open.arena, arena, "pc {pc}");
                            assert_eq!(open.duplicate_hits, duplicate_hits, "pc {pc}");
                            while let Some((succ, idx)) = open.frontier.pop() {
                                let (want, want_idx) =
                                    expected.pop_front().expect("no extra successor");
                                assert_eq!((&succ, idx), (&want, want_idx), "pc {pc}");
                                assert_eq!(succ.fingerprint(), want.fingerprint());
                                assert_eq!(succ.fingerprint(), succ.fingerprint_from_scratch());
                            }
                            assert!(expected.is_empty(), "pc {pc}: a successor went missing");
                        }
                    }
                }
            }
        }
        assert!(
            singles > 100 && forks > 100 && duplicate_hits > 100,
            "{singles} single steps, {forks} forks, {duplicate_hits} duplicates"
        );
    }

    #[test]
    fn bfs_and_dfs_find_the_same_terminals() {
        let p = parse_program(
            "beq $1, 0, long\nprint $1\nhalt\nlong: nop\nnop\nmov $1, 1\nprint $1\nhalt",
        )
        .unwrap();
        let mut s = MachineState::new();
        s.set_reg(Reg::r(1), Value::Err);
        let explore = |policy| {
            Explorer::new(&p, &dets())
                .with_policy(policy)
                .explore(vec![s.clone()], &Predicate::Any)
        };
        let bfs = explore(FrontierPolicy::Bfs);
        let dfs = explore(FrontierPolicy::Dfs);
        assert!(bfs.exhausted && dfs.exhausted);
        assert_eq!(bfs.terminals, dfs.terminals);
        assert_eq!(bfs.states_explored, dfs.states_explored);
        assert_eq!(bfs.solutions.len(), dfs.solutions.len());
        // BFS returns the shortest witness first; DFS dives deep first.
        assert!(bfs.solutions[0].trace.len() <= dfs.solutions[0].trace.len());
    }

    #[test]
    fn every_policy_agrees_on_an_exhausted_search() {
        let p = parse_program(
            "beq $1, 0, t\nmov $2, 1\njmp join\nt: mov $2, 2\nnop\n\
             join: print $2\nprint $1\nhalt",
        )
        .unwrap();
        let mut s = MachineState::new();
        s.set_reg(Reg::r(1), Value::Err);
        let bfs = Explorer::new(&p, &dets()).explore(vec![s.clone()], &Predicate::Any);
        assert!(bfs.exhausted);
        for policy in [
            FrontierPolicy::Dfs,
            FrontierPolicy::Priority(PriorityHeuristic::ConstraintMapSize),
            FrontierPolicy::Priority(PriorityHeuristic::Depth),
            FrontierPolicy::Priority(PriorityHeuristic::OutputLen),
        ] {
            let report = Explorer::new(&p, &dets())
                .with_policy(policy)
                .explore(vec![s.clone()], &Predicate::Any);
            assert!(report.exhausted, "{policy:?}");
            assert_eq!(report.terminals, bfs.terminals, "{policy:?}");
            assert_eq!(report.states_explored, bfs.states_explored, "{policy:?}");
            assert_eq!(report.solutions.len(), bfs.solutions.len(), "{policy:?}");
        }
        // Iterative deepening re-explores per round, so only the terminal
        // picture must agree.
        let idd = Explorer::new(&p, &dets())
            .with_policy(FrontierPolicy::IterativeDeepening {
                initial_depth: 1,
                depth_step: 1,
            })
            .explore(vec![s.clone()], &Predicate::Any);
        assert!(idd.exhausted);
        assert_eq!(idd.terminals, bfs.terminals);
        assert_eq!(idd.solutions.len(), bfs.solutions.len());
        assert!(
            idd.states_explored >= bfs.states_explored,
            "rounds re-expand shallow states"
        );
    }

    #[test]
    fn spilling_bfs_reproduces_the_unbounded_run() {
        let p = parse_program(
            "beq $1, 0, long\nprint $1\nhalt\nlong: nop\nnop\nmov $1, 1\nprint $1\nhalt",
        )
        .unwrap();
        let mut s = MachineState::new();
        s.set_reg(Reg::r(1), Value::Err);
        let unbounded = Explorer::new(&p, &dets()).explore(vec![s.clone()], &Predicate::Any);
        let limits = SearchLimits {
            max_frontier_bytes: Some(1), // clamped to the 4 KiB floor
            ..SearchLimits::default()
        };
        let spilled = Explorer::new(&p, &dets())
            .with_limits(limits)
            .explore(vec![s], &Predicate::Any);
        assert!(spilled.exhausted);
        assert_eq!(spilled.terminals, unbounded.terminals);
        assert_eq!(spilled.states_explored, unbounded.states_explored);
        assert_eq!(spilled.duplicate_hits, unbounded.duplicate_hits);
        // Identical expansion order means identical witness traces, too.
        let traces = |r: &SearchReport| {
            r.solutions
                .iter()
                .map(|s| s.trace.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(traces(&spilled), traces(&unbounded));
    }

    #[test]
    fn converging_paths_deduplicate_by_fingerprint() {
        // A diamond whose sides are the same length (3 steps each) and
        // converge completely after `join` clears the forked register and
        // its constraints: the second arrival's successor is a duplicate,
        // so the tail (print/halt) is explored exactly once.
        let p = parse_program(
            "beq $1, 0, t\nmov $2, 1\njmp join\nt: mov $2, 1\nnop\n\
             join: mov $1, 0\nprint $2\nhalt",
        )
        .unwrap();
        let mut s = MachineState::new();
        s.set_reg(Reg::r(1), Value::Err);
        let report = Explorer::new(&p, &dets()).explore(vec![s], &Predicate::Any);
        assert!(report.exhausted);
        assert_eq!(
            report.duplicate_hits, 1,
            "the post-join state must be recognised as already visited: {report}"
        );
        assert_eq!(
            report.terminals.halted, 1,
            "only one path survives past the join: {report}"
        );
        // seed + both fork successors + one more state per side + the
        // merged join/print/halt tail expanded once = 10 expansions.
        assert_eq!(report.states_explored, 10, "{report}");
    }

    #[test]
    fn seeds_are_deduplicated_by_fingerprint() {
        let p = parse_program("print $1\nhalt").unwrap();
        let s = MachineState::new();
        let report =
            Explorer::new(&p, &dets()).explore(vec![s.clone(), s.clone(), s], &Predicate::Any);
        assert_eq!(report.solutions.len(), 1, "duplicate seeds collapse");
        assert!(report.exhausted);
    }

    #[test]
    fn empty_seed_set_exhausts_immediately() {
        let p = parse_program("halt").unwrap();
        let report = Explorer::new(&p, &dets()).explore(Vec::new(), &Predicate::Any);
        assert!(report.exhausted);
        assert_eq!(report.states_explored, 0);
        assert!(report.solutions.is_empty());
        assert_eq!(report.workers, 1);
    }

    #[test]
    fn solution_cap_is_exact() {
        let p = parse_program(
            "beq $1, 0, t\nmov $2, 1\njmp join\nt: mov $2, 2\nnop\n\
             join: print $2\nprint $1\nhalt",
        )
        .unwrap();
        let mut s = MachineState::new();
        s.set_reg(Reg::r(1), Value::Err);
        let uncapped = Explorer::new(&p, &dets()).explore(vec![s.clone()], &Predicate::Any);
        assert!(uncapped.solutions.len() > 1, "the cap must bind");
        let capped = Explorer::new(&p, &dets())
            .with_limits(SearchLimits {
                max_solutions: 1,
                ..SearchLimits::default()
            })
            .explore(vec![s], &Predicate::Any);
        assert_eq!(capped.solutions.len(), 1);
        assert!(capped.hit_solution_cap && !capped.exhausted);
        assert_eq!(capped.solutions[0], uncapped.solutions[0]);
    }

    #[test]
    fn time_cap_stops_the_search() {
        let limits = SearchLimits {
            max_time: Some(Duration::ZERO),
            exec: ExecLimits::with_max_steps(u64::MAX),
            ..SearchLimits::default()
        };
        let endless = parse_program("loop: addi $2, $2, 1\nbeq $0, 0, loop").unwrap();
        let report = Explorer::new(&endless, &dets())
            .with_limits(limits.clone())
            .explore(vec![MachineState::new()], &Predicate::Any);
        assert!(report.hit_time_cap && !report.exhausted);
        // Even a space smaller than one check interval sees the expired
        // budget on the very first expansion instead of sweeping the space
        // and claiming exhaustion.
        let tiny = parse_program("nop\nhalt").unwrap();
        let report = Explorer::new(&tiny, &dets())
            .with_limits(limits)
            .explore(vec![MachineState::new()], &Predicate::Any);
        assert!(report.hit_time_cap && !report.exhausted);
        assert_eq!(report.states_explored, 0);
    }

    #[test]
    fn explore_auto_forwards_to_explore() {
        let p = parse_program(
            "beq $1, 0, t\nmov $2, 1\njmp join\nt: mov $2, 2\nnop\n\
             join: print $2\nprint $1\nhalt",
        )
        .unwrap();
        let d = dets();
        let mut s = MachineState::new();
        s.set_reg(Reg::r(1), Value::Err);
        // A budget above the old 50 k routing threshold.
        let limits = SearchLimits {
            max_states: 200_000,
            ..SearchLimits::default()
        };
        let direct = Explorer::new(&p, &d)
            .with_limits(limits.clone())
            .explore(vec![s.clone()], &Predicate::Any);
        for hint in [None, Some(1), Some(8)] {
            let auto = Explorer::new(&p, &d)
                .with_limits(limits.clone())
                .with_workers_hint(hint)
                .explore_auto(vec![s.clone()], &Predicate::Any);
            assert_eq!(auto.states_explored, direct.states_explored, "{hint:?}");
            assert_eq!(auto.duplicate_hits, direct.duplicate_hits, "{hint:?}");
            assert_eq!(auto.terminals, direct.terminals, "{hint:?}");
            assert_eq!(auto.exhausted, direct.exhausted, "{hint:?}");
            // Solutions (states and witness traces) in the same order.
            assert_eq!(auto.solutions, direct.solutions, "{hint:?}");
            assert_eq!((auto.workers, auto.steals), (1, 0), "{hint:?}");
        }
    }

    #[test]
    fn throughput_and_peaks_are_reported() {
        let p = parse_program("loop: addi $2, $2, 1\nbeq $0, 0, loop").unwrap();
        let limits = SearchLimits {
            max_states: 500,
            exec: ExecLimits::with_max_steps(1_000_000),
            ..SearchLimits::default()
        };
        let report = Explorer::new(&p, &dets())
            .with_limits(limits)
            .explore(vec![MachineState::new()], &Predicate::Any);
        assert!(report.hit_state_cap);
        assert!(
            report.states_per_second > 0.0,
            "throughput must be populated: {report}"
        );
        assert!(report.peak_frontier_len > 0, "{report}");
        assert!(report.peak_frontier_bytes > 0, "{report}");
        assert_eq!(report.spilled_states, 0, "no budget, no spilling");
    }

    #[test]
    fn with_policy_survives_with_limits_in_any_order() {
        let p = parse_program("halt").unwrap();
        let d = dets();
        let after = Explorer::new(&p, &d)
            .with_policy(FrontierPolicy::Dfs)
            .with_limits(SearchLimits::default());
        assert_eq!(after.policy(), FrontierPolicy::Dfs);
        let before = Explorer::new(&p, &d)
            .with_limits(SearchLimits::default())
            .with_policy(FrontierPolicy::Dfs);
        assert_eq!(before.policy(), FrontierPolicy::Dfs);
        // With no explicit override, the limits' policy governs.
        let from_limits = Explorer::new(&p, &d).with_limits(SearchLimits {
            policy: FrontierPolicy::Dfs,
            ..SearchLimits::default()
        });
        assert_eq!(from_limits.policy(), FrontierPolicy::Dfs);
    }

    #[test]
    fn memoized_reruns_serve_identical_reports() {
        let p = parse_program(
            "beq $1, 0, t\nmov $2, 1\njmp join\nt: mov $2, 2\nnop\n\
             join: print $2\nprint $1\nhalt",
        )
        .unwrap();
        let d = dets();
        let mut s = MachineState::new();
        s.set_reg(Reg::r(1), Value::Err);
        let store = crate::MemoStore::for_campaign(&p, &d);
        let e = Explorer::new(&p, &d).with_memo(Some(&store));
        let cold = e.explore(vec![s.clone()], &Predicate::Any);
        assert!(cold.exhausted);
        assert_eq!(cold.memo_hits, 0, "first run expands");
        assert_eq!(store.inserts(), 1, "exhausted search recorded");
        let warm = e.explore(vec![s.clone()], &Predicate::Any);
        assert_eq!(warm.memo_hits, 1, "second run serves");
        assert_eq!(warm.memo_states_skipped, cold.states_explored);
        // Everything outcome-shaped replays verbatim.
        assert_eq!(warm.states_explored, cold.states_explored);
        assert_eq!(warm.terminals, cold.terminals);
        assert_eq!(warm.duplicate_hits, cold.duplicate_hits);
        assert_eq!(warm.solutions, cold.solutions);
        assert!(warm.exhausted);
        // A different seed set is a different search: miss, then record.
        let fresh = e.explore(vec![MachineState::new()], &Predicate::Any);
        assert_eq!(fresh.memo_hits, 0);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn state_capped_searches_are_memoized_and_replay_their_truncation() {
        // The sequential traversal is deterministic, so a state-capped
        // report truncates at the same state on every identical search:
        // it is recorded, and a warm run replays the cap flag verbatim.
        let p = parse_program("loop: addi $2, $2, 1\nbeq $0, 0, loop").unwrap();
        let d = dets();
        let store = crate::MemoStore::for_campaign(&p, &d);
        let limits = SearchLimits {
            max_states: 100,
            exec: ExecLimits::with_max_steps(1_000_000),
            ..SearchLimits::default()
        };
        let e = Explorer::new(&p, &d)
            .with_limits(limits)
            .with_memo(Some(&store));
        let cold = e.explore(vec![MachineState::new()], &Predicate::Any);
        assert!(cold.hit_state_cap && !cold.exhausted);
        assert_eq!(store.inserts(), 1, "deterministic truncation recorded");
        let warm = e.explore(vec![MachineState::new()], &Predicate::Any);
        assert_eq!(warm.memo_hits, 1);
        assert!(warm.hit_state_cap && !warm.exhausted);
        assert_eq!(warm.states_explored, cold.states_explored);
    }

    #[test]
    fn time_capped_searches_are_never_memoized() {
        // Where a wall clock truncates is not a function of the search's
        // identity, so a time-capped report must never enter the store.
        let p = parse_program("loop: addi $2, $2, 1\nbeq $0, 0, loop").unwrap();
        let d = dets();
        let store = crate::MemoStore::for_campaign(&p, &d);
        let limits = SearchLimits {
            max_time: Some(Duration::ZERO),
            exec: ExecLimits::with_max_steps(1_000_000),
            ..SearchLimits::default()
        };
        let e = Explorer::new(&p, &d)
            .with_limits(limits)
            .with_memo(Some(&store));
        let report = e.explore(vec![MachineState::new()], &Predicate::Any);
        assert!(report.hit_time_cap);
        assert!(
            store.is_empty(),
            "a wall-clock stop describes the clock, not the subtree"
        );
    }

    #[test]
    fn custom_predicates_bypass_the_store() {
        let p = parse_program("print $1\nhalt").unwrap();
        let d = dets();
        let store = crate::MemoStore::for_campaign(&p, &d);
        let e = Explorer::new(&p, &d).with_memo(Some(&store));
        let report = e.explore(vec![MachineState::new()], &Predicate::custom(|_| true));
        assert!(report.exhausted);
        assert!(store.is_empty(), "no encodable identity, nothing stored");
        assert_eq!(store.misses(), 0, "not even probed");
    }

    #[test]
    fn accessors_expose_configuration() {
        let p = parse_program("halt").unwrap();
        let d = dets();
        let limits = SearchLimits::with_max_steps(42);
        let e = Explorer::new(&p, &d)
            .with_limits(limits)
            .with_policy(FrontierPolicy::Dfs);
        assert_eq!(e.limits().exec.max_steps, 42);
        assert_eq!(e.exec_limits().max_steps, 42);
        assert_eq!(e.policy(), FrontierPolicy::Dfs);
        assert_eq!(e.program().len(), 1);
        assert_eq!(e.detectors().len(), 0);
    }

    /// The most fingerprints the visited set held at once, beside the
    /// report.
    fn explore_counting_live(
        explorer: &Explorer<'_>,
        seeds: Vec<MachineState>,
        predicate: &Predicate,
    ) -> (SearchReport, usize) {
        let (report, _, peak_live) = explorer.explore_core(seeds, predicate);
        (report, peak_live)
    }

    #[test]
    fn a_bfs_on_a_long_single_path_keeps_a_few_fingerprints() {
        let p = parse_program("loop: addi $2, $2, 1\nbeq $0, 0, loop").unwrap();
        let d = dets();
        let limits = SearchLimits {
            max_states: 20_000,
            exec: ExecLimits::with_max_steps(1_000_000),
            ..SearchLimits::default()
        };
        for window in [None, Some(4 << 10)] {
            let e = Explorer::new(&p, &d).with_limits(SearchLimits {
                max_frontier_bytes: window,
                ..limits.clone()
            });
            let (report, peak_live) =
                explore_counting_live(&e, vec![MachineState::new()], &Predicate::Any);
            assert!(report.hit_state_cap, "{window:?}");
            assert!(peak_live <= 3, "{window:?}: {peak_live} live at the peak");
        }
        // Any other order keeps every fingerprint.
        for policy in [
            FrontierPolicy::Dfs,
            FrontierPolicy::Priority(PriorityHeuristic::Depth),
            FrontierPolicy::iterative_deepening(),
        ] {
            let e = Explorer::new(&p, &d)
                .with_limits(limits.clone())
                .with_policy(policy);
            let (report, peak_live) =
                explore_counting_live(&e, vec![MachineState::new()], &Predicate::Any);
            assert!(peak_live >= report.states_explored.min(64), "{policy:?}");
        }
    }

    /// The repo benchmark's pooled sweep: the seeds of every tcas
    /// register-file point in one search, which start at many different
    /// step counts, searched for the catastrophic advisory.
    fn pooled_tcas_sweep(max_states: usize) -> (SearchReport, usize) {
        use sympl_inject::{prepare_cached, Campaign, ErrorClass, PrefixCache};
        let w = sympl_apps::tcas();
        let exec = ExecLimits::with_max_steps(w.max_steps);
        let cache = PrefixCache::new(&w.program, &w.detectors, &w.input, &exec);
        let campaign = Campaign::new(&w.program, ErrorClass::RegisterFile);
        let seeds: Vec<MachineState> = (campaign.points.iter())
            .flat_map(|p| prepare_cached(&cache, p).seeds)
            .collect();
        let first = seeds.iter().map(MachineState::steps).min();
        let last = seeds.iter().map(MachineState::steps).max();
        assert!(first < last, "the seeds sit at different step counts");
        let e = Explorer::new(&w.program, &w.detectors).with_limits(SearchLimits {
            exec,
            max_states,
            max_solutions: usize::MAX,
            ..SearchLimits::default()
        });
        explore_counting_live(&e, seeds, &Predicate::ExactOutput { output: vec![2] })
    }

    #[test]
    fn a_capped_pooled_sweep_retires_layers() {
        // The peak (70 180 live, as in the exhaustive sweep) is reached
        // within the first 200 000 states.
        let (report, peak_live) = pooled_tcas_sweep(200_000);
        assert!(report.hit_state_cap);
        assert!(
            peak_live * 2 < report.states_explored,
            "{peak_live} live at the peak of {}",
            report.states_explored
        );
    }

    /// Release only: a debug build needs about a minute for it.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "release-only: run with --release")]
    fn the_exhaustive_pooled_sweep_keeps_under_a_tenth_of_its_fingerprints() {
        let (report, peak_live) = pooled_tcas_sweep(usize::MAX);
        assert!(report.exhausted);
        eprintln!(
            "{peak_live} fingerprints live at the peak of {} states",
            report.states_explored
        );
        assert!(
            peak_live * 10 < report.states_explored,
            "{peak_live} live at the peak of {}",
            report.states_explored
        );
    }

    #[test]
    fn capped_search_traces_are_pinned() {
        // Two err-driven forks, then a store; the cap stops the search
        // with solutions found. The traces are the witnesses the 64-bit
        // parent arena produced; the 32-bit arena must reproduce them.
        let p = parse_program(
            "beq $1, 0, a\nmov $3, 1\njmp b\na: mov $3, 2\n\
             b: bgt $2, 5, c\nprint $3\nhalt\nc: st $3, 0($0)\nprint $2\nhalt",
        )
        .unwrap();
        let mut s = MachineState::new();
        s.set_reg(Reg::r(1), Value::Err);
        s.set_reg(Reg::r(2), Value::Err);
        let limits = SearchLimits {
            max_states: 18,
            ..SearchLimits::default()
        };
        let traces = |policy| {
            let report = Explorer::new(&p, &dets())
                .with_policy(policy)
                .with_limits(limits.clone())
                .explore(vec![s.clone()], &Predicate::Any);
            assert!(report.hit_state_cap, "{policy:?}");
            report
                .solutions
                .into_iter()
                .map(|s| s.trace)
                .collect::<Vec<_>>()
        };
        assert_eq!(
            traces(FrontierPolicy::Bfs),
            vec![vec![0, 3, 4, 5, 6, 6], vec![0, 3, 4, 7, 8, 9, 9]]
        );
        assert_eq!(
            traces(FrontierPolicy::Dfs),
            vec![
                vec![0, 1, 2, 4, 5, 6, 6],
                vec![0, 1, 2, 4, 7, 8, 9, 9],
                vec![0, 3, 4, 5, 6, 6],
            ]
        );
    }
}
