//! The work-stealing parallel exploration engine.
//!
//! The paper scaled its searches by fanning independent tasks across a
//! 150-node cluster; *within* one task the search stayed sequential. This
//! module parallelizes a single search: [`ParallelExplorer`] runs N worker
//! threads under `std::thread::scope`, each owning a local work frontier
//! and stealing from victims when its own runs dry, all deduplicating
//! against one **sharded visited set**.
//!
//! # Frontier policies
//!
//! Each worker's deque is a [`FrontierQueue`] built from the configured
//! [`FrontierPolicy`] ([`SearchLimits::policy`]) — the engine never
//! branches on the policy; pushes, pops, **and steal-half** all go through
//! the trait, so every policy (FIFO, LIFO, best-first, spilling) is
//! stealable with no engine change. With a
//! [`SearchLimits::max_frontier_bytes`] budget, each worker gets a
//! disk-spilling window sized to its share (`budget / workers`).
//! Iterative deepening is the one policy with global structure (a rising
//! depth bound and a dedup reset per round): the coordinator runs it as a
//! loop of complete parallel sub-searches on depth-bounded LIFO deques,
//! resetting the sharded visited set between rounds; a round that cuts no
//! successor ends the search. Completed iterative searches report the
//! final (complete) round's terminals and solutions, with
//! `states_explored` accumulating every round's work.
//!
//! # Shard scheme
//!
//! The visited set is split into `2^k` shards (default `2^6 = 64`), each a
//! mutex-guarded [`FingerprintSet`]. Fingerprints themselves are O(1) to
//! obtain — states maintain rolling component digests on every write — so
//! the dedup insert is pure shard-lock + probe cost. A state's shard is
//! chosen by the **low** `k` bits of its 128-bit fingerprint
//! ([`Fingerprint::shard`]); within a shard, the set's `BuildHasher`
//! avalanches all 128 bits into the bucket hash, so a shard's shared low
//! bits cannot cluster its buckets. Dedup inserts from different workers
//! only contend when their fingerprints agree in the low `k` bits — the
//! low bits spread evenly across 64 shards (450 k tcas states: 6 425–7 567
//! per shard against an even 7 035), so lock contention is negligible next
//! to the cost of expanding a state.
//!
//! # Work stealing
//!
//! Each worker pushes successors onto its own mutex-guarded frontier and
//! consumes it locally in policy order. When empty, it scans the other
//! workers round-robin and takes [`FrontierQueue::steal_half`] from the
//! first victim with work — which half is the queue policy's choice: the
//! FIFO/LIFO disciplines (and their spilling windows) hand over the half
//! their owner would consume *last*, so a steal races minimally with the
//! victim's own pops, while the best-first frontier hands over the current
//! best half so both workers drive globally-promising states. The number
//! of successful steals is reported as [`SearchReport::steals`].
//!
//! The deques are deliberately one-level: every worker's **whole**
//! sub-frontier stays in its stealable queue. An earlier two-level variant
//! (lock-free private buffer spilling to a shared deque) benchmarked
//! *slower* under a state cap — the small private window slides depth-wise
//! through one subtree, stranding spilled work and burning the budget on
//! deep, expensive states instead of the shallow BFS prefix. The own-queue
//! mutex is uncontended outside steals, costing ~tens of nanoseconds per
//! state against microseconds of expansion work.
//!
//! # Budget accounting and termination
//!
//! State and solution budgets live in shared atomics; any worker that
//! exhausts a budget raises a cooperative stop flag, which every worker
//! checks once per expansion. Wall-clock budgets are checked every 64
//! expansions per worker (mirroring the sequential engine). Global
//! completion is detected with an in-flight counter: enqueuing a state
//! increments it, finishing a state's expansion decrements it, and an idle
//! worker exits once the counter hits zero. A queue that *drops* a push
//! (iterative deepening's depth cut) never counts toward in-flight — the
//! engine measures actual enqueues through the queue's length delta, under
//! the queue lock, so dropped states cannot wedge termination.
//!
//! # Determinism contract
//!
//! When a search **exhausts** its state space (no cap hit), every distinct
//! state is expanded exactly once regardless of worker count, schedule, or
//! frontier policy, so `states_explored`, `duplicate_hits`, terminal
//! outcome counts, and the *set* of solutions are identical to the
//! sequential [`Explorer`]'s (iterative deepening: identical terminals and
//! solutions; its `states_explored` includes the per-round re-expansion
//! cost by design). Discovery *order* is schedule-dependent, so solutions
//! are sorted into a canonical order (trace length, then trace, then state
//! fingerprint) before the report is returned. Two caveats, both
//! documented here rather than papered over: (1) a truncated search
//! (state/solution/time cap hit) explores a schedule-dependent prefix,
//! exactly as the paper's 30-minute task timeouts truncated
//! nondeterministically across cluster nodes; (2) witness traces record
//! the path that *won the race* to each state, which under Bfs is no
//! longer guaranteed shortest.
//!
//! # Threshold heuristic
//!
//! [`Explorer::explore_auto`] routes a search here only when its **state
//! budget** exceeds [`PARALLEL_STATE_THRESHOLD`] and more than one hardware
//! thread is available. The budget is the only size signal available before
//! the search runs; small-budget searches (the per-point common case in
//! quick campaigns) stay on the sequential engine, whose single-threaded
//! loop has no atomics, locks, or thread-spawn overhead.
//!
//! [`FingerprintSet`]: sympl_machine::FingerprintSet

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sympl_asm::Program;
use sympl_detect::DetectorSet;
use sympl_machine::{Fingerprint, FingerprintSet, MachineState, SuccessorBuf};

use crate::frontier::BoundedLifoQueue;
use crate::memo::{probe_digest, MemoStore, SubtreeSummary};
use crate::{
    Explorer, FrontierPolicy, FrontierQueue, OutcomeCounts, Predicate, SearchLimits, SearchReport,
    Solution,
};

/// State-budget threshold above which [`Explorer::explore_auto`] hands a
/// search to the [`ParallelExplorer`]. Below it, thread spawn plus shared
/// counters cost more than they recover; the paper-scale searches that
/// dominate campaign wall-clock are far above it.
pub const PARALLEL_STATE_THRESHOLD: usize = 50_000;

/// Default number of visited-set shards (`2^6`).
const DEFAULT_SHARD_BITS: u32 = 6;

/// Expansions between wall-clock budget checks, as in the sequential engine.
const TIME_CHECK_MASK: usize = 0x3F;

/// A persistent parent chain for witness traces. Work items migrate between
/// workers, so the sequential engine's flat parent arena (indices into one
/// worker-local `Vec`) cannot work here; an `Arc` chain clones in O(1) and
/// is immutable, so it crosses threads freely.
#[derive(Debug)]
struct TraceNode {
    pc: usize,
    parent: Option<Arc<TraceNode>>,
}

impl TraceNode {
    fn root(pc: usize) -> Arc<Self> {
        Arc::new(TraceNode { pc, parent: None })
    }

    fn child(self: &Arc<Self>, pc: usize) -> Arc<Self> {
        Arc::new(TraceNode {
            pc,
            parent: Some(Arc::clone(self)),
        })
    }

    fn reconstruct(&self) -> Vec<usize> {
        let mut trace = Vec::new();
        let mut cur = Some(self);
        while let Some(node) = cur {
            trace.push(node.pc);
            cur = node.parent.as_deref();
        }
        trace.reverse();
        trace
    }
}

type WorkerQueue = Mutex<Box<dyn FrontierQueue<Arc<TraceNode>>>>;

/// The sharded visited set: fingerprint low bits pick a shard, and each
/// shard buckets on a mix of all 128 bits.
struct ShardedVisited {
    shards: Vec<Mutex<FingerprintSet>>,
}

impl ShardedVisited {
    fn new(bits: u32) -> Self {
        ShardedVisited {
            shards: (0..1usize << bits)
                .map(|_| Mutex::new(FingerprintSet::default()))
                .collect(),
        }
    }

    /// Inserts a fingerprint; `true` when it was not already present.
    fn insert(&self, fp: Fingerprint) -> bool {
        self.shards[fp.shard(self.shards.len())]
            .lock()
            .expect("a worker panicked while holding a visited shard")
            .insert(fp)
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("visited shard poisoned").len())
            .sum()
    }
}

/// Shared coordination state for one parallel search (or one iterative
/// round).
struct Shared<'a> {
    program: &'a Program,
    detectors: &'a DetectorSet,
    limits: &'a SearchLimits,
    predicate: &'a Predicate,
    queues: Vec<WorkerQueue>,
    visited: ShardedVisited,
    /// Enqueued-but-unfinished states; 0 means the space is swept.
    in_flight: AtomicUsize,
    /// Cooperative stop: raised by whichever worker exhausts a budget.
    stop: AtomicBool,
    states: AtomicUsize,
    solutions_found: AtomicUsize,
    steals: AtomicUsize,
    hit_state_cap: AtomicBool,
    hit_solution_cap: AtomicBool,
    hit_time_cap: AtomicBool,
    start: Instant,
}

/// Per-worker result pool, merged after the scope joins.
#[derive(Default)]
struct WorkerPool {
    solutions: Vec<Solution>,
    terminals: OutcomeCounts,
    duplicate_hits: usize,
    peak_frontier_len: usize,
    peak_frontier_bytes: usize,
    /// Deepest terminal this worker reached, in absolute execution steps
    /// (memo summaries record the subtree depth; merged by max).
    deepest: u64,
}

/// A work-stealing parallel twin of [`Explorer`]: same program/detector
/// set/budget/policy configuration, N worker threads per search.
///
/// ```
/// use sympl_asm::parse_program;
/// use sympl_check::{ParallelExplorer, Predicate};
/// use sympl_detect::DetectorSet;
/// use sympl_machine::MachineState;
///
/// let program = parse_program("print $1\nhalt")?;
/// let detectors = DetectorSet::new();
/// let report = ParallelExplorer::new(&program, &detectors)
///     .with_workers(2)
///     .explore(vec![MachineState::new()], &Predicate::Any);
/// assert!(report.exhausted);
/// assert_eq!(report.workers, 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ParallelExplorer<'a> {
    program: &'a Program,
    detectors: &'a DetectorSet,
    limits: SearchLimits,
    /// A policy chosen via [`ParallelExplorer::with_policy`]. Kept
    /// separate from `limits.policy` so the two builders compose in
    /// either order — a later `with_limits` cannot silently revert an
    /// explicit `with_policy` choice.
    policy_override: Option<FrontierPolicy>,
    workers: usize,
    shard_bits: u32,
    /// An attached memo store ([`ParallelExplorer::with_memo`]): probed
    /// before spinning up the pool, populated when a search exhausts. The
    /// worker count folds into the probe digest, so entries recorded at
    /// one engine width never serve another (traces record race winners).
    memo: Option<&'a MemoStore>,
}

impl<'a> ParallelExplorer<'a> {
    /// An engine with default budgets, a BFS frontier, and one worker per
    /// available hardware thread.
    #[must_use]
    pub fn new(program: &'a Program, detectors: &'a DetectorSet) -> Self {
        ParallelExplorer {
            program,
            detectors,
            limits: SearchLimits::default(),
            policy_override: None,
            workers: available_workers(),
            shard_bits: DEFAULT_SHARD_BITS,
            memo: None,
        }
    }

    /// A parallel engine inheriting a sequential [`Explorer`]'s full
    /// configuration (program, detectors, budgets, effective policy,
    /// worker cap, attached memo store).
    #[must_use]
    pub fn from_explorer(explorer: &Explorer<'a>) -> Self {
        ParallelExplorer {
            program: explorer.program(),
            detectors: explorer.detectors(),
            limits: explorer.limits().clone(),
            policy_override: Some(explorer.policy()),
            workers: explorer.workers_hint().unwrap_or_else(available_workers),
            shard_bits: DEFAULT_SHARD_BITS,
            memo: explorer.memo(),
        }
    }

    /// Attaches (or detaches) a memoization store — the parallel twin of
    /// [`Explorer::with_memo`], with the same serve/record contract.
    #[must_use]
    pub fn with_memo(mut self, memo: Option<&'a MemoStore>) -> Self {
        self.memo = memo;
        self
    }

    /// Replaces the search budgets.
    #[must_use]
    pub fn with_limits(mut self, limits: SearchLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Replaces the frontier policy (per-worker queues follow it; the
    /// global interleaving is schedule-dependent either way). Overrides
    /// [`SearchLimits::policy`] whether called before or after
    /// [`ParallelExplorer::with_limits`].
    #[must_use]
    pub fn with_policy(mut self, policy: FrontierPolicy) -> Self {
        self.policy_override = Some(policy);
        self
    }

    /// The effective frontier policy: an explicit
    /// [`ParallelExplorer::with_policy`] choice, else
    /// [`SearchLimits::policy`].
    #[must_use]
    pub fn policy(&self) -> FrontierPolicy {
        self.policy_override.unwrap_or(self.limits.policy)
    }

    /// Sets the worker-thread count (clamped to at least 1).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the visited-set shard count to `2^bits` (clamped to `[0, 16]`).
    #[must_use]
    pub fn with_shard_bits(mut self, bits: u32) -> Self {
        self.shard_bits = bits.min(16);
        self
    }

    /// The configured worker-thread count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The configured search budgets.
    #[must_use]
    pub fn limits(&self) -> &SearchLimits {
        &self.limits
    }

    /// The per-worker spill window: each worker's share of the configured
    /// frontier budget.
    fn per_worker_budget(&self) -> Option<usize> {
        self.limits
            .max_frontier_bytes
            .map(|b| (b / self.workers).max(1))
    }

    /// Exhaustively explores the state space from `seeds` on the worker
    /// pool, collecting terminal states that satisfy `predicate`.
    ///
    /// See the module docs for the determinism contract: exhausted searches
    /// reproduce the sequential engine's counts and solution set exactly;
    /// truncated searches explore a schedule-dependent prefix.
    #[must_use]
    pub fn explore(&self, seeds: Vec<MachineState>, predicate: &Predicate) -> SearchReport {
        let Some(store) = self.memo else {
            return self.explore_inner(seeds, predicate).0;
        };
        let Some(digest) =
            probe_digest(predicate, &self.limits, self.policy(), self.workers, &seeds)
        else {
            // Custom predicate: no encodable identity, bypass the store.
            return self.explore_inner(seeds, predicate).0;
        };
        if let Some(served) = store.serve(digest) {
            return served;
        }
        let (report, max_depth) = self.explore_inner(seeds, predicate);
        // Unlike the sequential engine, a truncated parallel search
        // explores a schedule-dependent prefix: only exhausted reports
        // are deterministic functions of the probe digest, so only they
        // may enter the store.
        if report.exhausted {
            store.record(digest, SubtreeSummary::from_report(&report, max_depth));
        }
        report
    }

    /// The pool-driving body behind [`ParallelExplorer::explore`],
    /// memo-blind. Returns the report plus the subtree depth (deepest
    /// terminal's step count beyond the shallowest seed's).
    fn explore_inner(
        &self,
        seeds: Vec<MachineState>,
        predicate: &Predicate,
    ) -> (SearchReport, u64) {
        let start = Instant::now();
        let base_steps = seeds.iter().map(MachineState::steps).min().unwrap_or(0);
        let (mut report, deepest) = if let FrontierPolicy::IterativeDeepening {
            initial_depth,
            depth_step,
        } = self.policy()
        {
            self.explore_iterative(seeds, predicate, start, initial_depth, depth_step)
        } else {
            let budget = self.per_worker_budget();
            let queues: Vec<WorkerQueue> = (0..self.workers)
                .map(|_| Mutex::new(self.policy().build(budget)))
                .collect();
            self.explore_round(seeds, predicate, queues, 0, start)
        };
        report.elapsed = start.elapsed();
        report.states_per_second = SearchReport::throughput(report.states_explored, report.elapsed);
        (report, deepest.saturating_sub(base_steps))
    }

    /// Iterative deepening on the worker pool: a loop of complete parallel
    /// sub-searches on depth-bounded LIFO deques, with a fresh (reset)
    /// visited set per round — the parallel form of the sequential engine's
    /// round loop. The final round's terminals/solutions are the report;
    /// `states_explored`/`duplicate_hits`/`steals` accumulate every
    /// round's work.
    fn explore_iterative(
        &self,
        seeds: Vec<MachineState>,
        predicate: &Predicate,
        start: Instant,
        initial_depth: u64,
        depth_step: u64,
    ) -> (SearchReport, u64) {
        let base = seeds.iter().map(MachineState::steps).min().unwrap_or(0);
        let mut bound = initial_depth;
        let step = depth_step.max(1);
        let mut total_states = 0usize;
        let mut total_dups = 0usize;
        let mut total_steals = 0usize;
        let mut peak_len = 0usize;
        let mut peak_bytes = 0usize;
        let mut deepest = 0u64;
        loop {
            let cut = Arc::new(AtomicBool::new(false));
            let queues: Vec<WorkerQueue> = (0..self.workers)
                .map(|_| {
                    Mutex::new(
                        Box::new(BoundedLifoQueue::new(base, bound, Arc::clone(&cut)))
                            as Box<dyn FrontierQueue<Arc<TraceNode>>>,
                    )
                })
                .collect();
            let (mut report, round_deepest) =
                self.explore_round(seeds.clone(), predicate, queues, total_states, start);
            deepest = deepest.max(round_deepest);
            total_states += report.states_explored;
            total_dups += report.duplicate_hits;
            total_steals += report.steals;
            peak_len = peak_len.max(report.peak_frontier_len);
            peak_bytes = peak_bytes.max(report.peak_frontier_bytes);
            let truncated = report.hit_state_cap || report.hit_solution_cap || report.hit_time_cap;
            if !truncated && cut.load(Ordering::Relaxed) {
                bound = bound.saturating_add(step);
                continue;
            }
            report.states_explored = total_states;
            report.duplicate_hits = total_dups;
            report.steals = total_steals;
            report.peak_frontier_len = peak_len;
            report.peak_frontier_bytes = peak_bytes;
            return (report, deepest);
        }
    }

    /// One complete parallel sub-search over caller-built worker queues.
    /// `states_used` seeds the shared expansion counter so state budgets
    /// span iterative rounds; the returned `states_explored` counts this
    /// round only. `elapsed`/`states_per_second` are left for the caller.
    fn explore_round(
        &self,
        seeds: Vec<MachineState>,
        predicate: &Predicate,
        queues: Vec<WorkerQueue>,
        states_used: usize,
        start: Instant,
    ) -> (SearchReport, u64) {
        let shared = Shared {
            program: self.program,
            detectors: self.detectors,
            limits: &self.limits,
            predicate,
            queues,
            visited: ShardedVisited::new(self.shard_bits),
            in_flight: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            states: AtomicUsize::new(states_used),
            solutions_found: AtomicUsize::new(0),
            steals: AtomicUsize::new(0),
            hit_state_cap: AtomicBool::new(false),
            hit_solution_cap: AtomicBool::new(false),
            hit_time_cap: AtomicBool::new(false),
            start,
        };

        // Seed round-robin across the worker queues, deduplicated exactly
        // like successors (single insertion point: enqueue time). In-flight
        // counts the queues' *actual* length growth, so a policy that drops
        // a push can never wedge termination.
        let mut enqueued = 0usize;
        for (i, seed) in seeds.into_iter().enumerate() {
            if shared.visited.insert(seed.fingerprint()) {
                let node = TraceNode::root(seed.pc());
                let mut queue = shared.queues[i % self.workers]
                    .lock()
                    .expect("seeding happens before workers start");
                let before = queue.len();
                queue.seed(seed, node);
                enqueued += queue.len() - before;
            }
        }
        // Snapshot the post-seeding footprint across *all* queues, so a
        // search that never pushes (all-terminal seeds) still reports a
        // consistent (len, bytes) peak pair.
        let seed_bytes: usize = shared
            .queues
            .iter()
            .map(|q| {
                q.lock()
                    .expect("seeding happens before workers start")
                    .approx_bytes()
            })
            .sum();
        shared.in_flight.store(enqueued, Ordering::Release);

        let pools: Vec<WorkerPool> = std::thread::scope(|scope| {
            let shared = &shared;
            let handles: Vec<_> = (0..self.workers)
                .map(|id| scope.spawn(move || worker_loop(shared, id)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("search worker panicked"))
                .collect()
        });

        let mut report = SearchReport {
            states_explored: shared.states.load(Ordering::Acquire) - states_used,
            steals: shared.steals.load(Ordering::Acquire),
            workers: self.workers,
            hit_state_cap: shared.hit_state_cap.load(Ordering::Acquire),
            hit_solution_cap: shared.hit_solution_cap.load(Ordering::Acquire),
            hit_time_cap: shared.hit_time_cap.load(Ordering::Acquire),
            ..SearchReport::default()
        };
        // Peak frontier figures: the sum of per-worker peaks is an upper
        // bound on the true global peak (steals migrate states between
        // queues); the seed snapshot covers searches that never push.
        report.peak_frontier_len = enqueued;
        report.peak_frontier_bytes = seed_bytes;
        let mut worker_peak_len = 0usize;
        let mut worker_peak_bytes = 0usize;
        let mut deepest = 0u64;
        for pool in pools {
            report.terminals.absorb(&pool.terminals);
            report.duplicate_hits += pool.duplicate_hits;
            report.solutions.extend(pool.solutions);
            worker_peak_len += pool.peak_frontier_len;
            worker_peak_bytes += pool.peak_frontier_bytes;
            deepest = deepest.max(pool.deepest);
        }
        report.peak_frontier_len = report.peak_frontier_len.max(worker_peak_len);
        report.peak_frontier_bytes = report.peak_frontier_bytes.max(worker_peak_bytes);
        report.spilled_states = shared
            .queues
            .iter()
            .map(|q| q.lock().expect("workers joined").spilled_states())
            .sum();
        report.exhausted = !report.hit_state_cap
            && !report.hit_solution_cap
            && !report.hit_time_cap
            && shared.in_flight.load(Ordering::Acquire) == 0;

        // Canonical solution order (see module docs): discovery order is
        // schedule-dependent, so sort by witness length, then the trace
        // itself, then the terminal state's content digest.
        report.solutions.sort_by(|a, b| {
            (a.trace.len(), &a.trace)
                .cmp(&(b.trace.len(), &b.trace))
                .then_with(|| a.state.fingerprint().cmp(&b.state.fingerprint()))
        });
        // Workers race past the solution cap by at most one solution each;
        // trim the pooled excess so the cap is exact, like the sequential
        // engine's.
        if report.solutions.len() > self.limits.max_solutions {
            report.solutions.truncate(self.limits.max_solutions);
        }
        (report, deepest)
    }
}

/// One worker: drain the local frontier, steal when dry, stop cooperatively.
fn worker_loop(shared: &Shared<'_>, id: usize) -> WorkerPool {
    let mut pool = WorkerPool::default();
    let mut expanded = 0usize;
    let mut idle_spins = 0u32;
    // Per-worker scratch, allocated once for the worker's lifetime: the
    // shared decode of the program, the successor sink the dispatch fills,
    // and the batch buffer for the own-queue push. The fork hot path never
    // touches the global allocator for these again.
    let decoded = shared.program.decoded();
    let mut successors = SuccessorBuf::new();
    let mut fresh: Vec<(MachineState, Arc<TraceNode>)> = Vec::new();

    loop {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let Some((state, trace)) = pop_local(shared, id).or_else(|| {
            if try_steal(shared, id) {
                pop_local(shared, id)
            } else {
                None
            }
        }) else {
            if shared.in_flight.load(Ordering::Acquire) == 0 {
                break; // The space is swept; everyone else will follow.
            }
            // Work exists but lives in states other workers are expanding
            // right now; back off briefly and re-scan.
            idle_spins += 1;
            if idle_spins < 64 {
                std::thread::yield_now();
            } else {
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
            continue;
        };
        idle_spins = 0;

        // State budget: claim an expansion slot; release it and stop if the
        // cap was already reached (the popped state stays unexpanded,
        // exactly like the sequential engine's pre-expansion cap check).
        let claimed = shared.states.fetch_add(1, Ordering::Relaxed);
        if claimed >= shared.limits.max_states {
            shared.states.fetch_sub(1, Ordering::Relaxed);
            shared.hit_state_cap.store(true, Ordering::Relaxed);
            shared.stop.store(true, Ordering::Release);
            shared.in_flight.fetch_sub(1, Ordering::AcqRel);
            break;
        }

        // Wall-clock budget, checked every few expansions per worker —
        // including the worker's very first (`expanded` still 0 here), so
        // an already-expired budget stops the search before any expansion,
        // exactly as the sequential engine's check does.
        if let Some(budget) = shared.limits.max_time {
            if expanded & TIME_CHECK_MASK == 0 && shared.start.elapsed() >= budget {
                // Release the expansion slot claimed above: this state is
                // not expanded, so it must not be counted.
                shared.states.fetch_sub(1, Ordering::Relaxed);
                shared.hit_time_cap.store(true, Ordering::Relaxed);
                shared.stop.store(true, Ordering::Release);
                shared.in_flight.fetch_sub(1, Ordering::AcqRel);
                break;
            }
        }
        expanded += 1;

        if state.status().is_terminal() {
            pool.terminals.record(&state);
            pool.deepest = pool.deepest.max(state.steps());
            if shared.predicate.matches(&state) {
                pool.solutions.push(Solution {
                    trace: trace.reconstruct(),
                    state,
                });
                let found = shared.solutions_found.fetch_add(1, Ordering::AcqRel) + 1;
                if found >= shared.limits.max_solutions {
                    shared.hit_solution_cap.store(true, Ordering::Relaxed);
                    shared.stop.store(true, Ordering::Release);
                }
            }
            shared.in_flight.fetch_sub(1, Ordering::AcqRel);
            continue;
        }

        // Dedup each successor, then enqueue the fresh ones in one batch
        // under a single own-queue lock. In-flight grows by the queue's
        // *measured* length delta while the lock is held — items are
        // unreachable to thieves until the lock drops, so the counter can
        // never dip to zero with work outstanding, and policy-dropped
        // pushes (depth cuts) are never counted.
        state.step_into(
            decoded,
            shared.detectors,
            &shared.limits.exec,
            &mut successors,
        );
        for succ in successors.drain() {
            if shared.visited.insert(succ.fingerprint()) {
                let node = trace.child(succ.pc());
                fresh.push((succ, node));
            } else {
                pool.duplicate_hits += 1;
            }
        }
        if !fresh.is_empty() {
            let mut queue = shared.queues[id].lock().expect("own queue poisoned");
            let before = queue.len();
            for (succ, node) in fresh.drain(..) {
                queue.push(succ, node);
            }
            let grown = queue.len() - before;
            if grown > 0 {
                shared.in_flight.fetch_add(grown, Ordering::AcqRel);
            }
            pool.peak_frontier_len = pool.peak_frontier_len.max(queue.len());
            pool.peak_frontier_bytes = pool.peak_frontier_bytes.max(queue.approx_bytes());
        }
        shared.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
    pool
}

fn pop_local(shared: &Shared<'_>, id: usize) -> Option<(MachineState, Arc<TraceNode>)> {
    shared.queues[id].lock().expect("own queue poisoned").pop()
}

/// Steals roughly half of the first non-empty victim frontier into `id`'s
/// own; `true` when anything was taken. Which half is the queue policy's
/// call — see [`FrontierQueue::steal_half`] for each discipline's choice.
/// Never holds two queue locks at once, so mutual steals cannot deadlock.
/// In-flight is untouched: stolen states were counted at their original
/// enqueue and remain enqueued, just elsewhere.
fn try_steal(shared: &Shared<'_>, id: usize) -> bool {
    let workers = shared.queues.len();
    for offset in 1..workers {
        let victim = (id + offset) % workers;
        let taken = shared.queues[victim]
            .lock()
            .expect("victim queue poisoned")
            .steal_half();
        if taken.is_empty() {
            continue;
        }
        shared.steals.fetch_add(1, Ordering::Relaxed);
        let mut own = shared.queues[id].lock().expect("own queue poisoned");
        for (state, node) in taken {
            // Re-entering through `seed` keeps already-admitted states
            // exempt from a depth bound they have already passed.
            own.seed(state, node);
        }
        return true;
    }
    false
}

fn available_workers() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

impl<'a> Explorer<'a> {
    /// Routes the search by budget: the [`ParallelExplorer`] when the state
    /// budget exceeds [`PARALLEL_STATE_THRESHOLD`] and more than one worker
    /// is available, the sequential engine otherwise.
    ///
    /// This is the entry point the campaign layers (`run_point_with`, the
    /// cluster worker loop, `symplfied::Framework`) drive: big-budget point
    /// searches saturate the machine, small ones skip the thread-pool
    /// overhead. The worker count is the hardware thread count unless the
    /// caller capped it with [`Explorer::with_workers_hint`] — callers that
    /// already run explorers concurrently (the cluster task pool) pass
    /// their per-task share so nested parallelism cannot oversubscribe the
    /// machine.
    #[must_use]
    pub fn explore_auto(&self, seeds: Vec<MachineState>, predicate: &Predicate) -> SearchReport {
        let workers = self
            .workers_hint()
            .unwrap_or_else(available_workers)
            .min(available_workers())
            .max(1);
        if workers >= 2 && self.limits().max_states > PARALLEL_STATE_THRESHOLD {
            ParallelExplorer::from_explorer(self)
                .with_workers(workers)
                .explore(seeds, predicate)
        } else {
            self.explore(seeds, predicate)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PriorityHeuristic;
    use sympl_asm::{parse_program, Reg};
    use sympl_machine::ExecLimits;
    use sympl_symbolic::Value;

    fn dets() -> DetectorSet {
        DetectorSet::new()
    }

    /// A program whose error fork produces a few dozen states.
    fn forked_program() -> (Program, MachineState) {
        let p = parse_program(
            "beq $1, 0, t\nmov $2, 1\njmp join\nt: mov $2, 2\nnop\n\
             join: print $2\nprint $1\nhalt",
        )
        .unwrap();
        let mut s = MachineState::new();
        s.set_reg(Reg::r(1), Value::Err);
        (p, s)
    }

    #[test]
    fn memoized_parallel_reruns_replay_and_never_cross_widths() {
        let (p, s) = forked_program();
        let d = dets();
        let store = crate::MemoStore::for_campaign(&p, &d);
        let two = ParallelExplorer::new(&p, &d)
            .with_workers(2)
            .with_memo(Some(&store));
        let cold = two.explore(vec![s.clone()], &Predicate::Any);
        assert!(cold.exhausted);
        assert_eq!(store.inserts(), 1, "exhausted search recorded");
        let warm = two.explore(vec![s.clone()], &Predicate::Any);
        assert_eq!(warm.memo_hits, 1, "re-run served from the store");
        assert_eq!(warm.states_explored, cold.states_explored);
        assert_eq!(warm.terminals, cold.terminals);
        assert_eq!(warm.solutions, cold.solutions);
        assert_eq!(warm.workers, cold.workers, "recorded width replays");
        // A different engine width is a different probe digest: entries
        // never cross between widths (traces record race winners).
        let one = ParallelExplorer::new(&p, &d)
            .with_workers(1)
            .with_memo(Some(&store));
        let other = one.explore(vec![s.clone()], &Predicate::Any);
        assert_eq!(other.memo_hits, 0);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn truncated_parallel_searches_are_never_memoized() {
        let (p, s) = forked_program();
        let d = dets();
        let store = crate::MemoStore::for_campaign(&p, &d);
        let capped = SearchLimits {
            max_states: 5,
            ..SearchLimits::default()
        };
        let truncated = ParallelExplorer::new(&p, &d)
            .with_workers(2)
            .with_limits(capped)
            .with_memo(Some(&store))
            .explore(vec![s.clone()], &Predicate::Any);
        assert!(truncated.hit_state_cap && !truncated.exhausted);
        assert!(store.is_empty(), "a truncated report entered the store");
        // The same search without the cap runs to exhaustion and records.
        let full = ParallelExplorer::new(&p, &d)
            .with_workers(2)
            .with_memo(Some(&store))
            .explore(vec![s], &Predicate::Any);
        assert!(full.exhausted);
        assert!(full.states_explored > 5, "the cap really truncated");
        assert_eq!(store.len(), 1);
    }

    fn solution_digests(report: &SearchReport) -> Vec<Fingerprint> {
        let mut v: Vec<Fingerprint> = report
            .solutions
            .iter()
            .map(|s| s.state.fingerprint())
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn matches_sequential_engine_when_exhausted() {
        let (p, s) = forked_program();
        let sequential = Explorer::new(&p, &dets()).explore(vec![s.clone()], &Predicate::Any);
        assert!(sequential.exhausted);
        for workers in [1, 2, 4] {
            let parallel = ParallelExplorer::new(&p, &dets())
                .with_workers(workers)
                .explore(vec![s.clone()], &Predicate::Any);
            assert!(parallel.exhausted, "workers={workers}");
            assert_eq!(parallel.workers, workers);
            assert_eq!(parallel.states_explored, sequential.states_explored);
            assert_eq!(parallel.duplicate_hits, sequential.duplicate_hits);
            assert_eq!(parallel.terminals, sequential.terminals);
            assert_eq!(solution_digests(&parallel), solution_digests(&sequential));
        }
    }

    #[test]
    fn every_policy_matches_when_exhausted() {
        let (p, s) = forked_program();
        let sequential = Explorer::new(&p, &dets()).explore(vec![s.clone()], &Predicate::Any);
        for policy in [
            FrontierPolicy::Dfs,
            FrontierPolicy::Priority(PriorityHeuristic::ConstraintMapSize),
            FrontierPolicy::Priority(PriorityHeuristic::Depth),
            FrontierPolicy::Priority(PriorityHeuristic::OutputLen),
        ] {
            let parallel = ParallelExplorer::new(&p, &dets())
                .with_policy(policy)
                .with_workers(3)
                .explore(vec![s.clone()], &Predicate::Any);
            assert!(parallel.exhausted, "{policy:?}");
            assert_eq!(parallel.terminals, sequential.terminals, "{policy:?}");
            assert_eq!(
                parallel.states_explored, sequential.states_explored,
                "{policy:?}"
            );
            assert_eq!(
                solution_digests(&parallel),
                solution_digests(&sequential),
                "{policy:?}"
            );
        }
    }

    #[test]
    fn iterative_deepening_matches_terminals_and_solutions() {
        let (p, s) = forked_program();
        let sequential = Explorer::new(&p, &dets()).explore(vec![s.clone()], &Predicate::Any);
        for workers in [1, 3] {
            let idd = ParallelExplorer::new(&p, &dets())
                .with_policy(FrontierPolicy::IterativeDeepening {
                    initial_depth: 1,
                    depth_step: 2,
                })
                .with_workers(workers)
                .explore(vec![s.clone()], &Predicate::Any);
            assert!(idd.exhausted, "workers={workers}");
            assert_eq!(idd.terminals, sequential.terminals, "workers={workers}");
            assert_eq!(
                solution_digests(&idd),
                solution_digests(&sequential),
                "workers={workers}"
            );
            assert!(
                idd.states_explored >= sequential.states_explored,
                "rounds re-expand shallow states"
            );
        }
    }

    #[test]
    fn spilling_frontier_matches_at_multiple_worker_counts() {
        let (p, s) = forked_program();
        let sequential = Explorer::new(&p, &dets()).explore(vec![s.clone()], &Predicate::Any);
        let limits = SearchLimits {
            max_frontier_bytes: Some(1), // clamped to the per-queue floor
            ..SearchLimits::default()
        };
        for workers in [1, 2, 4] {
            let parallel = ParallelExplorer::new(&p, &dets())
                .with_limits(limits.clone())
                .with_workers(workers)
                .explore(vec![s.clone()], &Predicate::Any);
            assert!(parallel.exhausted, "workers={workers}");
            assert_eq!(parallel.terminals, sequential.terminals);
            assert_eq!(parallel.states_explored, sequential.states_explored);
            assert_eq!(solution_digests(&parallel), solution_digests(&sequential));
        }
    }

    #[test]
    fn dfs_frontier_matches_too() {
        let (p, s) = forked_program();
        let sequential = Explorer::new(&p, &dets())
            .with_policy(FrontierPolicy::Dfs)
            .explore(vec![s.clone()], &Predicate::Any);
        let parallel = ParallelExplorer::new(&p, &dets())
            .with_policy(FrontierPolicy::Dfs)
            .with_workers(3)
            .explore(vec![s], &Predicate::Any);
        assert!(parallel.exhausted);
        assert_eq!(parallel.terminals, sequential.terminals);
        assert_eq!(parallel.states_explored, sequential.states_explored);
    }

    #[test]
    fn parallel_runs_are_deterministic_when_exhausted() {
        let (p, s) = forked_program();
        let run = || {
            ParallelExplorer::new(&p, &dets())
                .with_workers(4)
                .with_shard_bits(2)
                .explore(vec![s.clone()], &Predicate::Any)
        };
        let a = run();
        let b = run();
        assert_eq!(a.states_explored, b.states_explored);
        assert_eq!(a.terminals, b.terminals);
        assert_eq!(solution_digests(&a), solution_digests(&b));
        // Canonical order makes the full solution lists comparable, not
        // just the multisets.
        let traces = |r: &SearchReport| {
            r.solutions
                .iter()
                .map(|s| s.trace.len())
                .collect::<Vec<_>>()
        };
        assert!(traces(&a).windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn state_cap_truncates_and_is_reported() {
        let p = parse_program("loop: addi $2, $2, 1\nbeq $0, 0, loop").unwrap();
        let limits = SearchLimits {
            max_states: 300,
            exec: ExecLimits::with_max_steps(1_000_000),
            ..SearchLimits::default()
        };
        let report = ParallelExplorer::new(&p, &dets())
            .with_workers(2)
            .with_limits(limits)
            .explore(vec![MachineState::new()], &Predicate::Any);
        assert!(report.hit_state_cap);
        assert!(!report.exhausted);
        // Workers may stop a few states short of the cap (cooperative
        // stop), never past it.
        assert!(report.states_explored <= 300);
        assert!(report.peak_frontier_len > 0);
    }

    #[test]
    fn solution_cap_is_exact_after_pooling() {
        let (p, s) = forked_program();
        let limits = SearchLimits {
            max_solutions: 1,
            ..SearchLimits::default()
        };
        let report = ParallelExplorer::new(&p, &dets())
            .with_workers(4)
            .with_limits(limits)
            .explore(vec![s], &Predicate::Any);
        assert_eq!(report.solutions.len(), 1);
        assert!(report.hit_solution_cap);
    }

    #[test]
    fn time_cap_stops_the_pool() {
        let p = parse_program("loop: addi $2, $2, 1\nbeq $0, 0, loop").unwrap();
        let limits = SearchLimits {
            max_time: Some(std::time::Duration::ZERO),
            exec: ExecLimits::with_max_steps(u64::MAX),
            ..SearchLimits::default()
        };
        let report = ParallelExplorer::new(&p, &dets())
            .with_workers(2)
            .with_limits(limits.clone())
            .explore(vec![MachineState::new()], &Predicate::Any);
        assert!(report.hit_time_cap);
        assert!(!report.exhausted);
        // Even a space smaller than one check interval must see the
        // expired budget on the very first expansion, like the sequential
        // engine — not sweep the space and claim exhaustion.
        let tiny = parse_program("nop\nhalt").unwrap();
        let report = ParallelExplorer::new(&tiny, &dets())
            .with_workers(2)
            .with_limits(limits)
            .explore(vec![MachineState::new()], &Predicate::Any);
        assert!(report.hit_time_cap);
        assert!(!report.exhausted);
        assert_eq!(report.states_explored, 0);
    }

    #[test]
    fn duplicate_seeds_collapse() {
        let p = parse_program("print $1\nhalt").unwrap();
        let s = MachineState::new();
        let report = ParallelExplorer::new(&p, &dets())
            .with_workers(3)
            .explore(vec![s.clone(), s.clone(), s], &Predicate::Any);
        assert_eq!(report.solutions.len(), 1);
        assert!(report.exhausted);
    }

    #[test]
    fn empty_seed_set_exhausts_immediately() {
        let p = parse_program("halt").unwrap();
        let report = ParallelExplorer::new(&p, &dets())
            .with_workers(2)
            .explore(Vec::new(), &Predicate::Any);
        assert!(report.exhausted);
        assert_eq!(report.states_explored, 0);
        assert_eq!(report.workers, 2);
    }

    #[test]
    fn sharded_visited_set_counts_inserts() {
        let visited = ShardedVisited::new(3);
        for v in 0..500u128 {
            assert!(visited.insert(Fingerprint(v * 0x9E37_79B9_7F4A_7C15)));
        }
        for v in 0..500u128 {
            assert!(!visited.insert(Fingerprint(v * 0x9E37_79B9_7F4A_7C15)));
        }
        assert_eq!(visited.len(), 500);
    }

    #[test]
    fn explore_auto_routes_by_budget() {
        let (p, s) = forked_program();
        // A tiny budget stays sequential regardless of core count.
        let small = Explorer::new(&p, &dets())
            .with_limits(SearchLimits {
                max_states: 100,
                ..SearchLimits::default()
            })
            .explore_auto(vec![s.clone()], &Predicate::Any);
        assert_eq!(small.workers, 1);
        // A big budget engages as many workers as the hardware offers (on
        // a single-core machine the sequential engine is the right call).
        let big = Explorer::new(&p, &dets()).explore_auto(vec![s.clone()], &Predicate::Any);
        assert_eq!(big.workers, available_workers());
        assert_eq!(big.terminals, small.terminals, "same exhaustive answer");
        // A workers hint of 1 forces the sequential path even on big
        // budgets (nested-parallel callers use this to avoid
        // oversubscription).
        let hinted = Explorer::new(&p, &dets())
            .with_workers_hint(Some(1))
            .explore_auto(vec![s], &Predicate::Any);
        assert_eq!(hinted.workers, 1);
        assert_eq!(hinted.steals, 0);
        assert_eq!(hinted.terminals, small.terminals);
    }

    #[test]
    fn trace_nodes_reconstruct_paths() {
        let root = TraceNode::root(0);
        let deep = root.child(1).child(2).child(5);
        assert_eq!(deep.reconstruct(), vec![0, 1, 2, 5]);
        assert_eq!(root.reconstruct(), vec![0]);
    }
}
