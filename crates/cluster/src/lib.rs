//! # sympl-cluster — the parallel campaign runner
//!
//! The paper's evaluation (§6.1) ran its searches "on a cluster of 150
//! dual-processor AMD Opteron machines": the overall search command was
//! "split into multiple smaller searches, each of which sweeps a particular
//! section of the program code", performed independently and pooled, with
//! each task capped at 10 findings and a 30-minute wall budget.
//!
//! This crate reproduces that harness on a thread pool. A [`Campaign`]'s
//! injection points are sharded into [`TaskSpec`]s; worker threads run each
//! task's points through the model checker under per-task caps; results are
//! pooled into a [`CampaignReport`] whose task-completion statistics mirror
//! the ones the paper reports (tasks completed / found errors / found
//! nothing, average completion time).
//!
//! ```no_run
//! use sympl_asm::parse_program;
//! use sympl_check::Predicate;
//! use sympl_cluster::{run_cluster, ClusterConfig};
//! use sympl_detect::DetectorSet;
//! use sympl_inject::{Campaign, ErrorClass};
//!
//! let program = parse_program("read $1\nprint $1\nhalt")?;
//! let campaign = Campaign::new(&program, ErrorClass::RegisterFile);
//! let report = run_cluster(
//!     &program,
//!     &DetectorSet::new(),
//!     &[7],
//!     &campaign,
//!     &Predicate::OutputContainsErr,
//!     &ClusterConfig::default(),
//! );
//! println!("{}", report.summary());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sympl_asm::Program;
use sympl_check::{Explorer, MemoStore, Predicate, SearchLimits, Solution};
use sympl_detect::DetectorSet;
use sympl_inject::{run_point_cached, Campaign, InjectionPoint, PrefixCache};
use sympl_symbolic::Fnv128Hasher;

mod codec;

/// One shard of a campaign: a set of injection points examined by a single
/// worker under one time/finding budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSpec {
    /// Task identifier (its index in the shard list).
    pub id: usize,
    /// The injection points this task sweeps.
    pub points: Vec<InjectionPoint>,
}

/// Shards a campaign into [`TaskSpec`]s — the canonical task partition
/// shared by the in-process pool ([`run_cluster`]) and the network
/// coordinator (`sympl_wire`), so a distributed campaign sweeps exactly
/// the same task boundaries as a local one.
#[must_use]
pub fn shard_specs(campaign: &Campaign, tasks: usize) -> Vec<TaskSpec> {
    campaign
        .shards(tasks)
        .into_iter()
        .enumerate()
        .map(|(id, points)| TaskSpec { id, points })
        .collect()
}

/// Splits a task's point list deterministically in two contiguous halves,
/// both carrying the *parent's* id — work stealing at the granularity of
/// whole shards. The left half gets the extra point when the count is odd
/// (the same rounding as [`Campaign::shards`]); concatenating the halves
/// reproduces the parent's point list exactly, which is what lets a
/// coordinator re-queue the two halves, run them anywhere, and
/// [`merge_part_results`] back into the result an uninterrupted sweep
/// would have produced. Returns `None` for a task with fewer than two
/// points — there is nothing to share.
#[must_use]
pub fn split_spec(spec: &TaskSpec) -> Option<(TaskSpec, TaskSpec)> {
    if spec.points.len() < 2 {
        return None;
    }
    let mid = spec.points.len().div_ceil(2);
    Some((
        TaskSpec {
            id: spec.id,
            points: spec.points[..mid].to_vec(),
        },
        TaskSpec {
            id: spec.id,
            points: spec.points[mid..].to_vec(),
        },
    ))
}

/// Whether splitting `spec` under `config` preserves result-exactness.
///
/// [`run_task_spec`]'s finding cap couples points to each other: once a
/// task has accumulated `max_findings_per_task` findings, later points are
/// skipped and each point's solution budget shrinks to the cap's
/// remainder. A split part replays its points with the counter reset, so
/// splitting is only exact when the cap can never bind — no task budget,
/// and a finding cap at least `points × max_solutions` (every point can
/// max out its own solution budget without the task-level `min` or the
/// early break ever firing). Any sub-range of a spec that satisfies this
/// satisfies it too, so the guarantee survives recursive splitting.
#[must_use]
pub fn split_preserves_outcome(spec: &TaskSpec, config: &ClusterConfig) -> bool {
    config.task_budget.is_none()
        && config.max_findings_per_task
            >= spec
                .points
                .len()
                .saturating_mul(config.search.max_solutions)
}

/// Whether consulting a cross-campaign [`MemoStore`] under `config`
/// preserves result-exactness — the memoization analogue of
/// [`split_preserves_outcome`].
///
/// A memo hit replays the statistics the search recorded when it first
/// ran, so memo-on and memo-off campaigns produce identical
/// [`CampaignReport::outcome_digest`]s exactly when every point search is
/// itself run-to-run deterministic. Point searches are sequential at any
/// [`ClusterConfig::point_share`], so the one condition is no task
/// budget: a wall-clock budget folds the remaining time into each point's
/// `max_time`, making the probe digest (and whether a search is even
/// exhaustive) time-dependent.
///
/// [`run_task_spec_with_cancel`] applies this gate itself (a store passed
/// under a non-conforming config is simply ignored), so callers use it to
/// decide whether warming a store is worthwhile, not for soundness.
#[must_use]
pub fn memo_preserves_outcome(config: &ClusterConfig) -> bool {
    config.task_budget.is_none()
}

/// Re-merges the results of split parts of one task — given in canonical
/// order (each part's position in the parent's point list) — into the
/// `(TaskResult, findings)` an uninterrupted sweep of the parent would
/// have produced: counters sum, `completed` ANDs, engine high-water marks
/// max, and findings concatenate (part order *is* point order). Returns
/// `None` for an empty part list. Exact only under the
/// [`split_preserves_outcome`] conditions.
#[must_use]
pub fn merge_part_results(
    parts: Vec<(TaskResult, Vec<Finding>)>,
) -> Option<(TaskResult, Vec<Finding>)> {
    let mut parts = parts.into_iter();
    let (mut merged, mut findings) = parts.next()?;
    for (part, part_findings) in parts {
        debug_assert_eq!(part.id, merged.id, "parts of one task share its id");
        merged.points_examined += part.points_examined;
        merged.points_total += part.points_total;
        merged.activated += part.activated;
        merged.findings += part.findings;
        merged.completed &= part.completed;
        merged.elapsed += part.elapsed;
        merged.states_explored += part.states_explored;
        merged.point_workers = merged.point_workers.max(part.point_workers);
        merged.steals += part.steals;
        merged.peak_frontier_len = merged.peak_frontier_len.max(part.peak_frontier_len);
        merged.peak_frontier_bytes = merged.peak_frontier_bytes.max(part.peak_frontier_bytes);
        merged.spilled_states += part.spilled_states;
        merged.memo_hits += part.memo_hits;
        merged.memo_states_skipped += part.memo_states_skipped;
        merged.prefix_steps_saved += part.prefix_steps_saved;
        findings.extend(part_findings);
    }
    Some((merged, findings))
}

/// A finding: an injection point together with one terminal state that
/// matched the campaign predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The task that produced the finding.
    pub task_id: usize,
    /// The corrupted location / breakpoint.
    pub point: InjectionPoint,
    /// The matching terminal state and its witness trace.
    pub solution: Solution,
}

/// Per-task results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskResult {
    /// The task's identifier.
    pub id: usize,
    /// Number of injection points examined before the budget ran out.
    pub points_examined: usize,
    /// Number of points in the task.
    pub points_total: usize,
    /// Points whose breakpoint was reached (fault activated).
    pub activated: usize,
    /// Predicate-matching terminal states found.
    pub findings: usize,
    /// Whether every point was fully searched within the budgets.
    pub completed: bool,
    /// Wall-clock duration of the task.
    pub elapsed: Duration,
    /// Total states explored by this task's searches.
    pub states_explored: usize,
    /// Worker threads of this task's point searches: 1 once any point was
    /// searched, else 0. Every search is sequential; kept because wire
    /// and checkpoint bytes carry it.
    pub point_workers: usize,
    /// Work-steal operations: always 0. Kept because wire and checkpoint
    /// bytes carry it.
    pub steals: usize,
    /// Largest frontier (in states, including any spilled to disk) any of
    /// this task's point searches held at once: the open set, stored or
    /// not (a state-capped BFS counts the states beyond its cap that it
    /// drops).
    pub peak_frontier_len: usize,
    /// Largest approximate in-RAM frontier footprint (bytes) any of this
    /// task's point searches held at once — the figure a
    /// `SearchLimits::max_frontier_bytes` budget bounds. It covers the
    /// open set, stored or not, like `peak_frontier_len`.
    pub peak_frontier_bytes: usize,
    /// Frontier states this task's searches pushed past their RAM window
    /// into disk segments, stored or not: a state-capped BFS counts the
    /// states beyond its cap there without writing them (see
    /// `sympl_check::frontier`).
    pub spilled_states: usize,
    /// Point searches served whole from a cross-campaign [`MemoStore`]
    /// instead of being re-expanded. A served search replays its recorded
    /// statistics verbatim (so every digest-visible counter above is
    /// unchanged); the saved work is visible only here. Process-local —
    /// never crosses the wire.
    pub memo_hits: usize,
    /// States the memo hits above did *not* have to re-expand (the served
    /// searches' recorded `states_explored`). Process-local.
    pub memo_states_skipped: usize,
    /// Concrete error-free prefix steps served from the task's
    /// [`PrefixCache`] snapshots instead of re-executed per point.
    /// Process-local.
    pub prefix_steps_saved: u64,
}

/// Cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Worker threads (the paper used 150 cluster nodes).
    pub workers: usize,
    /// Number of tasks the campaign is split into.
    pub tasks: usize,
    /// Per-point search limits (watchdog, state cap, …) — including the
    /// frontier policy and spill budget (`SearchLimits::policy` /
    /// `SearchLimits::max_frontier_bytes`), so memory-bounded campaigns
    /// configure the frontier subsystem here once for every task.
    pub search: SearchLimits,
    /// Wall-clock budget per *task* (the paper allotted 30 minutes).
    pub task_budget: Option<Duration>,
    /// Finding cap per task (the paper capped at 10).
    pub max_findings_per_task: usize,
    /// A per-point worker allowance that does not change how a point is
    /// searched: every point search is sequential. Kept because the
    /// benchmark harness sets it and task frames carry
    /// [`ClusterConfig::point_share`].
    pub point_workers_hint: Option<usize>,
}

impl ClusterConfig {
    /// The per-point worker share task frames carry:
    /// [`ClusterConfig::point_workers_hint`] when set, else hardware
    /// threads / `workers` (at least 1). It does not change how a point is
    /// searched.
    #[must_use]
    pub fn point_share(&self) -> usize {
        self.point_workers_hint.unwrap_or_else(|| {
            (std::thread::available_parallelism().map_or(1, usize::from) / self.workers.max(1))
                .max(1)
        })
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            workers: std::thread::available_parallelism().map_or(4, usize::from),
            tasks: 16,
            search: SearchLimits::default(),
            task_budget: None,
            max_findings_per_task: 10,
            point_workers_hint: None,
        }
    }
}

/// Pooled results of a sharded campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignReport {
    /// Per-task results, ordered by task id.
    pub tasks: Vec<TaskResult>,
    /// All findings across tasks.
    pub findings: Vec<Finding>,
    /// Total wall-clock time of the campaign (not the sum of task times).
    pub elapsed: Duration,
    /// The campaign survived worker failures: at least one worker died,
    /// stalled past its liveness deadline, or had tasks re-queued. The
    /// *outcomes* are still exact (every shard ran to the same result on a
    /// surviving worker) — degradation describes the schedule, not the
    /// results, so none of these fields feed [`Self::outcome_digest`].
    pub degraded: bool,
    /// Worker connections lost mid-campaign (dead, stalled, or refused).
    pub workers_lost: usize,
    /// Tasks that had to be re-queued onto another worker.
    pub tasks_retried: usize,
    /// Tasks restored from a coordinator checkpoint instead of re-run.
    pub resumed_tasks: usize,
    /// Workers admitted into the campaign after it started (wire-level
    /// `Register`/`Welcome`). Like the degradation counters, a schedule
    /// fact — it never feeds [`Self::outcome_digest`].
    pub workers_joined: usize,
    /// In-flight shards cancelled and split in two to feed idle workers
    /// ([`split_spec`]); the halves are re-merged before pooling, so the
    /// count describes the schedule, not the outcomes.
    pub tasks_split: usize,
}

impl CampaignReport {
    /// Tasks that ran all their points to completion within budget.
    #[must_use]
    pub fn tasks_completed(&self) -> usize {
        self.tasks.iter().filter(|t| t.completed).count()
    }

    /// Completed tasks that found at least one error.
    #[must_use]
    pub fn tasks_with_findings(&self) -> usize {
        self.tasks
            .iter()
            .filter(|t| t.completed && t.findings > 0)
            .count()
    }

    /// Completed tasks that found nothing (benign or crashing errors only).
    #[must_use]
    pub fn tasks_without_findings(&self) -> usize {
        self.tasks
            .iter()
            .filter(|t| t.completed && t.findings == 0)
            .count()
    }

    /// Mean task duration among completed tasks.
    #[must_use]
    pub fn avg_completed_task_time(&self) -> Duration {
        let completed: Vec<&TaskResult> = self.tasks.iter().filter(|t| t.completed).collect();
        if completed.is_empty() {
            return Duration::ZERO;
        }
        let total: Duration = completed.iter().map(|t| t.elapsed).sum();
        total / u32::try_from(completed.len()).unwrap_or(1)
    }

    /// Total states the campaign's searches expanded, across all tasks.
    #[must_use]
    pub fn states_explored(&self) -> usize {
        self.tasks.iter().map(|t| t.states_explored).sum()
    }

    /// Aggregate engine throughput: states expanded per wall-clock second
    /// of the campaign (CPU-parallel tasks all count toward the same
    /// wall-clock denominator).
    #[must_use]
    pub fn states_per_second(&self) -> f64 {
        sympl_check::SearchReport::throughput(self.states_explored(), self.elapsed)
    }

    /// Largest frontier (in states) any point search in the campaign held
    /// at once.
    #[must_use]
    pub fn peak_frontier_len(&self) -> usize {
        self.tasks
            .iter()
            .map(|t| t.peak_frontier_len)
            .max()
            .unwrap_or(0)
    }

    /// Largest approximate in-RAM frontier footprint (bytes) any point
    /// search in the campaign held at once.
    #[must_use]
    pub fn peak_frontier_bytes(&self) -> usize {
        self.tasks
            .iter()
            .map(|t| t.peak_frontier_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Total frontier states the campaign's searches pushed past their RAM
    /// window, stored or not (see [`TaskResult::spilled_states`]).
    #[must_use]
    pub fn spilled_states(&self) -> usize {
        self.tasks.iter().map(|t| t.spilled_states).sum()
    }

    /// Point searches served whole from the cross-campaign [`MemoStore`],
    /// across all tasks.
    #[must_use]
    pub fn memo_hits(&self) -> usize {
        self.tasks.iter().map(|t| t.memo_hits).sum()
    }

    /// States the memo hits did not have to re-expand, across all tasks.
    /// [`Self::states_explored`] already *includes* these (served searches
    /// replay their recorded statistics), so the hit rate by states is
    /// `memo_states_skipped / states_explored`.
    #[must_use]
    pub fn memo_states_skipped(&self) -> usize {
        self.tasks.iter().map(|t| t.memo_states_skipped).sum()
    }

    /// Concrete error-free prefix steps served from [`PrefixCache`]
    /// snapshots instead of re-executed, across all tasks.
    #[must_use]
    pub fn prefix_steps_saved(&self) -> u64 {
        self.tasks.iter().map(|t| t.prefix_steps_saved).sum()
    }

    /// A deterministic 128-bit digest of the campaign's *outcome* — the
    /// per-task completion statistics and every finding's injection point,
    /// terminal-state fingerprint, and witness trace — excluding all
    /// wall-clock figures and the schedule-dependent degradation counters
    /// ([`Self::degraded`], [`Self::workers_lost`], [`Self::tasks_retried`],
    /// [`Self::resumed_tasks`], [`Self::workers_joined`],
    /// [`Self::tasks_split`]). Two campaign runs that swept the same
    /// points to the same results produce the same digest, whether the
    /// tasks ran on in-process threads or on remote workers over the wire,
    /// and whether or not workers died or the run was resumed from a
    /// checkpoint along the way; the distributed CI gate diffs exactly
    /// this value. (FNV-128 over `Hash`-fed bytes: stable across processes
    /// on one platform, not across platforms of different endianness.)
    #[must_use]
    pub fn outcome_digest(&self) -> u128 {
        use std::hash::Hash;
        let mut h = Fnv128Hasher::new();
        self.tasks.len().hash(&mut h);
        for t in &self.tasks {
            (
                t.id,
                t.points_examined,
                t.points_total,
                t.activated,
                t.findings,
                t.completed,
                t.states_explored,
                t.spilled_states,
            )
                .hash(&mut h);
        }
        self.findings.len().hash(&mut h);
        for f in &self.findings {
            (f.task_id, f.point).hash(&mut h);
            f.solution.state.fingerprint().0.hash(&mut h);
            f.solution.trace.hash(&mut h);
        }
        h.finish128()
    }

    /// A paper-style textual summary (the §6.2 "Running Time" paragraph).
    #[must_use]
    pub fn summary(&self) -> String {
        let mut text = format!(
            "{} tasks: {} completed ({} found errors, {} found none), {} incomplete; \
             {} findings total; avg completed-task time {:?}; campaign wall time {:?}; \
             engine: {} states at {:.0} states/s; \
             frontier: peak {} state(s) / ~{} bytes in RAM, {} spilled",
            self.tasks.len(),
            self.tasks_completed(),
            self.tasks_with_findings(),
            self.tasks_without_findings(),
            self.tasks.len() - self.tasks_completed(),
            self.findings.len(),
            self.avg_completed_task_time(),
            self.elapsed,
            self.states_explored(),
            self.states_per_second(),
            self.peak_frontier_len(),
            self.peak_frontier_bytes(),
            self.spilled_states(),
        );
        if self.memo_hits() > 0 {
            text.push_str(&format!(
                "; memo: {} hit(s) served {} state(s) without expansion",
                self.memo_hits(),
                self.memo_states_skipped()
            ));
        }
        if self.prefix_steps_saved() > 0 {
            text.push_str(&format!(
                "; prefix cache saved {} concrete step(s)",
                self.prefix_steps_saved()
            ));
        }
        if self.resumed_tasks > 0 {
            text.push_str(&format!(
                "; resumed {} task(s) from checkpoint",
                self.resumed_tasks
            ));
        }
        if self.workers_joined > 0 || self.tasks_split > 0 {
            text.push_str(&format!(
                "; ELASTIC: {} worker(s) joined, {} shard split(s)",
                self.workers_joined, self.tasks_split
            ));
        }
        if self.degraded {
            text.push_str(&format!(
                "; DEGRADED: {} worker(s) lost, {} task(s) re-queued",
                self.workers_lost, self.tasks_retried
            ));
        }
        text
    }
}

/// Shards a campaign and runs it over a worker pool.
///
/// Deterministic in its *results* (every task examines a fixed point set
/// with fixed budgets); only scheduling order varies across runs, unless a
/// `task_budget` makes completion time-dependent.
#[must_use]
pub fn run_cluster(
    program: &Program,
    detectors: &DetectorSet,
    input: &[i64],
    campaign: &Campaign,
    predicate: &Predicate,
    config: &ClusterConfig,
) -> CampaignReport {
    run_cluster_with_memo(program, detectors, input, campaign, predicate, config, None)
}

/// [`run_cluster`] with a cross-campaign [`MemoStore`] shared by every
/// task: each point search probes the store before expanding and records
/// its result after, so a warm store (a previous run of the same
/// campaign, loaded from disk) serves repeated searches without
/// re-expansion, and a cold store is warmed for the next run. The store's
/// hit counters and [`TaskResult::memo_hits`] /
/// [`TaskResult::memo_states_skipped`] make the saved work visible.
///
/// Exactness: the store is consulted only when [`memo_preserves_outcome`]
/// holds for `config` (the per-task runner enforces this), so memo-on and
/// memo-off campaigns always pool to the same
/// [`CampaignReport::outcome_digest`]. Callers are responsible for keying
/// the store to the campaign's program + detectors
/// ([`MemoStore::for_campaign`]) — a stale store must be refused at load
/// time, not probed.
#[must_use]
pub fn run_cluster_with_memo(
    program: &Program,
    detectors: &DetectorSet,
    input: &[i64],
    campaign: &Campaign,
    predicate: &Predicate,
    config: &ClusterConfig,
    memo: Option<&MemoStore>,
) -> CampaignReport {
    let start = Instant::now();
    let specs = shard_specs(campaign, config.tasks);

    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(TaskResult, Vec<Finding>)>> = Mutex::new(Vec::new());

    let workers = config.workers.max(1);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = specs.get(i) else { break };
                let outcome = run_task_spec_with_cancel(
                    program,
                    detectors,
                    input,
                    spec,
                    predicate,
                    config,
                    &AtomicBool::new(false),
                    memo,
                );
                results
                    .lock()
                    .expect("worker panicked while holding the results lock")
                    .push(outcome);
            });
        }
    });

    let pooled = results
        .into_inner()
        .expect("all workers joined before pooling");
    pool_results(pooled, start.elapsed())
}

/// Pools per-task results into a [`CampaignReport`] in the canonical
/// order: tasks sorted by id, each task's findings appended in task order.
/// Both [`run_cluster`] and the network coordinator merge through this
/// function, which is what makes a distributed exhaustive campaign's
/// report reproduce the in-process one verbatim regardless of which
/// worker finished first.
#[must_use]
pub fn pool_results(
    mut pooled: Vec<(TaskResult, Vec<Finding>)>,
    elapsed: Duration,
) -> CampaignReport {
    pooled.sort_by_key(|(t, _)| t.id);
    let mut report = CampaignReport {
        elapsed,
        ..CampaignReport::default()
    };
    for (task, findings) in pooled {
        report.tasks.push(task);
        report.findings.extend(findings);
    }
    report
}

/// Runs one task: sweep its points sequentially under the task budget.
///
/// This is the unit of work a campaign schedules — the in-process pool
/// calls it on its worker threads, and a `symplfied serve` network worker
/// calls it for each task frame it receives, so both paths run the exact
/// same engine code under the same budget accounting. Only
/// `config.search`, `config.task_budget` and
/// `config.max_findings_per_task` are read from the config.
#[must_use]
pub fn run_task_spec(
    program: &Program,
    detectors: &DetectorSet,
    input: &[i64],
    spec: &TaskSpec,
    predicate: &Predicate,
    config: &ClusterConfig,
) -> (TaskResult, Vec<Finding>) {
    run_task_spec_with_cancel(
        program,
        detectors,
        input,
        spec,
        predicate,
        config,
        &AtomicBool::new(false),
        None,
    )
}

/// [`run_task_spec`] with a cooperative cancellation flag, checked between
/// point searches: once `cancel` is set the task stops sweeping, marks
/// itself incomplete, and returns whatever it has. A network worker's
/// connection thread sets the flag when the coordinator sends a `Cancel`
/// frame (or dies), so an aborting campaign does not strand the worker in
/// a long sweep. Cancellation granularity is one injection point — a
/// single long point search runs to its own budget before the flag is
/// seen.
///
/// `memo` is an optional cross-campaign [`MemoStore`] the task's point
/// searches probe and warm. It is consulted only when
/// [`memo_preserves_outcome`] holds for `config` — under a non-conforming
/// config the store is ignored, so passing one is always outcome-safe.
/// The caller must have keyed the store to this (program, detectors) pair;
/// a store for a different campaign would simply never hit (probe digests
/// include the seed fingerprints), but refusing it at load time keeps the
/// waste visible.
#[must_use]
#[allow(clippy::too_many_arguments)] // the task runner IS the parameter list: one shard + full campaign identity
pub fn run_task_spec_with_cancel(
    program: &Program,
    detectors: &DetectorSet,
    input: &[i64],
    spec: &TaskSpec,
    predicate: &Predicate,
    config: &ClusterConfig,
    cancel: &AtomicBool,
    memo: Option<&MemoStore>,
) -> (TaskResult, Vec<Finding>) {
    let start = Instant::now();
    let mut findings = Vec::new();
    let mut result = TaskResult {
        id: spec.id,
        points_examined: 0,
        points_total: spec.points.len(),
        activated: 0,
        findings: 0,
        completed: true,
        elapsed: Duration::ZERO,
        states_explored: 0,
        point_workers: 0,
        steals: 0,
        peak_frontier_len: 0,
        peak_frontier_bytes: 0,
        spilled_states: 0,
        memo_hits: 0,
        memo_states_skipped: 0,
        prefix_steps_saved: 0,
    };

    let memo = if memo_preserves_outcome(config) {
        memo
    } else {
        None
    };

    // Decode once per task: the per-point explorers constructed below all
    // borrow the same cached IR rather than re-lowering the program.
    let _ = program.decoded();

    // One error-free-prefix sweep per task: every point's prepare phase is
    // served from first-arrival snapshots instead of re-running the
    // concrete prefix. Valid for the whole task because the exec limits
    // (`config.search.exec`) are never adjusted per point — only the
    // search-level budgets above are.
    let cache = PrefixCache::new(program, detectors, input, &config.search.exec);

    for point in &spec.points {
        if cancel.load(Ordering::Relaxed) {
            result.completed = false;
            break;
        }
        if let Some(budget) = config.task_budget {
            if start.elapsed() >= budget {
                result.completed = false;
                break;
            }
        }
        if result.findings >= config.max_findings_per_task {
            break;
        }
        // Give each point's search the remaining task budget.
        let mut limits = config.search.clone();
        if let Some(budget) = config.task_budget {
            let remaining = budget.saturating_sub(start.elapsed());
            limits.max_time = Some(match limits.max_time {
                Some(t) => t.min(remaining),
                None => remaining,
            });
        }
        limits.max_solutions = limits
            .max_solutions
            .min(config.max_findings_per_task - result.findings);

        // A fresh Explorer per point: the remaining task budget shrinks
        // as points complete, and budgets are fixed at construction.
        // Construction is cheap (two references + the limits); the value
        // of the shared API here is that workers run the same engine
        // code path as inject/ssim/Framework, not object reuse.
        let explorer = Explorer::new(program, detectors)
            .with_limits(limits)
            .with_memo(memo);
        let outcome = run_point_cached(&explorer, &cache, point, predicate);
        result.points_examined += 1;
        if outcome.activated {
            result.activated += 1;
        }
        result.states_explored += outcome.report.states_explored;
        result.point_workers = result.point_workers.max(outcome.report.workers);
        result.steals += outcome.report.steals;
        result.peak_frontier_len = result
            .peak_frontier_len
            .max(outcome.report.peak_frontier_len);
        result.peak_frontier_bytes = result
            .peak_frontier_bytes
            .max(outcome.report.peak_frontier_bytes);
        result.spilled_states += outcome.report.spilled_states;
        result.memo_hits += outcome.report.memo_hits;
        result.memo_states_skipped += outcome.report.memo_states_skipped;
        if outcome.report.hit_time_cap || outcome.report.hit_state_cap {
            // A truncated search means the task did not fully sweep its
            // section — it counts as incomplete, like the paper's 65
            // timed-out tcas tasks.
            result.completed = false;
        }
        result.findings += outcome.report.solutions.len();
        for solution in outcome.report.solutions {
            findings.push(Finding {
                task_id: spec.id,
                point: *point,
                solution,
            });
        }
    }
    result.elapsed = start.elapsed();
    result.prefix_steps_saved = cache.steps_saved();
    (result, findings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympl_asm::parse_program;
    use sympl_inject::ErrorClass;
    use sympl_machine::ExecLimits;

    fn factorial() -> sympl_asm::Program {
        parse_program(
            "ori $2 $0 #1\nread $1\nmov $3, $1\nori $4 $0 #1\n\
             loop: setgt $5 $3 $4\nbeq $5 0 exit\nmult $2 $2 $3\nsubi $3 $3 #1\nbeq $0 #0 loop\n\
             exit: prints \"Factorial = \"\nprint $2\nhalt",
        )
        .unwrap()
    }

    fn quick_config(tasks: usize) -> ClusterConfig {
        ClusterConfig {
            workers: 4,
            tasks,
            search: SearchLimits {
                exec: ExecLimits::with_max_steps(300),
                ..SearchLimits::default()
            },
            task_budget: None,
            max_findings_per_task: 10,
            point_workers_hint: None,
        }
    }

    #[test]
    fn cluster_pools_all_tasks() {
        let p = factorial();
        let campaign = Campaign::new(&p, ErrorClass::RegisterFile);
        let report = run_cluster(
            &p,
            &DetectorSet::new(),
            &[4],
            &campaign,
            &Predicate::OutputContainsErr,
            &quick_config(5),
        );
        assert!(report.tasks.len() <= 5 && !report.tasks.is_empty());
        let sharded: usize = report.tasks.iter().map(|t| t.points_total).sum();
        assert_eq!(sharded, campaign.len(), "shards partition the campaign");
        let examined: usize = report.tasks.iter().map(|t| t.points_examined).sum();
        assert!(examined > 0);
        assert!(
            !report.findings.is_empty(),
            "register errors in factorial must reach the output"
        );
        // Task ids are stable and ordered.
        for (i, t) in report.tasks.iter().enumerate() {
            assert_eq!(t.id, i);
        }
    }

    #[test]
    fn single_worker_matches_many_workers() {
        let p = factorial();
        let campaign = Campaign::new(&p, ErrorClass::RegisterFile);
        let predicate = Predicate::OutputContainsErr;
        let mut one = quick_config(4);
        one.workers = 1;
        let mut many = quick_config(4);
        many.workers = 8;
        let a = run_cluster(&p, &DetectorSet::new(), &[3], &campaign, &predicate, &one);
        let b = run_cluster(&p, &DetectorSet::new(), &[3], &campaign, &predicate, &many);
        assert_eq!(a.findings.len(), b.findings.len());
        assert_eq!(a.tasks_completed(), b.tasks_completed());
        let fa: Vec<_> = a.findings.iter().map(|f| (f.task_id, f.point)).collect();
        let fb: Vec<_> = b.findings.iter().map(|f| (f.task_id, f.point)).collect();
        assert_eq!(fa, fb, "scheduling must not change pooled results");
    }

    #[test]
    fn finding_cap_limits_per_task_results() {
        let p = factorial();
        let campaign = Campaign::new(&p, ErrorClass::RegisterFile);
        let mut config = quick_config(1);
        config.max_findings_per_task = 2;
        let report = run_cluster(
            &p,
            &DetectorSet::new(),
            &[4],
            &campaign,
            &Predicate::OutputContainsErr,
            &config,
        );
        assert!(report.findings.len() <= 2);
    }

    #[test]
    fn zero_budget_marks_tasks_incomplete() {
        let p = factorial();
        let campaign = Campaign::new(&p, ErrorClass::RegisterFile);
        let mut config = quick_config(3);
        config.task_budget = Some(Duration::ZERO);
        let report = run_cluster(
            &p,
            &DetectorSet::new(),
            &[4],
            &campaign,
            &Predicate::OutputContainsErr,
            &config,
        );
        assert_eq!(report.tasks_completed(), 0);
        assert!(report.summary().contains("incomplete"));
    }

    #[test]
    fn pool_results_order_is_canonical() {
        let p = factorial();
        let campaign = Campaign::new(&p, ErrorClass::RegisterFile);
        let config = quick_config(4);
        let specs = shard_specs(&campaign, config.tasks);
        assert_eq!(specs.len(), 4);
        let dets = DetectorSet::new();
        let predicate = Predicate::OutputContainsErr;
        let mut results: Vec<_> = specs
            .iter()
            .map(|s| run_task_spec(&p, &dets, &[4], s, &predicate, &config))
            .collect();
        let forward = pool_results(results.clone(), Duration::ZERO);
        results.reverse();
        let reversed = pool_results(results, Duration::ZERO);
        assert_eq!(forward.tasks, reversed.tasks);
        assert_eq!(forward.findings, reversed.findings);
        assert_eq!(forward.outcome_digest(), reversed.outcome_digest());
    }

    #[test]
    fn outcome_digest_ignores_wall_clock_but_sees_outcomes() {
        let p = factorial();
        let campaign = Campaign::new(&p, ErrorClass::RegisterFile);
        let predicate = Predicate::OutputContainsErr;
        let config = ClusterConfig {
            point_workers_hint: Some(1),
            ..quick_config(4)
        };
        let run = |cfg: &ClusterConfig| {
            run_cluster(&p, &DetectorSet::new(), &[4], &campaign, &predicate, cfg)
        };
        let a = run(&config);
        let b = run(&config);
        assert_ne!(a.elapsed, Duration::ZERO);
        assert_eq!(
            a.outcome_digest(),
            b.outcome_digest(),
            "digest must be a pure function of outcomes, not timing"
        );
        let mut c = b.clone();
        c.findings.pop();
        assert_ne!(a.outcome_digest(), c.outcome_digest());
    }

    #[test]
    fn outcome_digest_sees_witness_traces_and_state_counts() {
        let p = factorial();
        let campaign = Campaign::new(&p, ErrorClass::RegisterFile);
        let config = ClusterConfig {
            point_workers_hint: Some(1),
            ..quick_config(4)
        };
        let a = run_cluster(
            &p,
            &DetectorSet::new(),
            &[4],
            &campaign,
            &Predicate::OutputContainsErr,
            &config,
        );
        assert!(!a.findings.is_empty() && !a.tasks.is_empty());
        // One finding's witness trace, with its end state unchanged.
        let mut traced = a.clone();
        traced.findings[0].solution.trace.push(0);
        assert_ne!(a.outcome_digest(), traced.outcome_digest(), "trace");
        // One task's explored-state count, with nothing else changed.
        let mut counted = a.clone();
        counted.tasks[0].states_explored += 1;
        assert_ne!(a.outcome_digest(), counted.outcome_digest(), "states");
    }

    #[test]
    fn point_share_respects_explicit_hint() {
        let mut config = quick_config(1);
        assert!(config.point_share() >= 1);
        config.point_workers_hint = Some(7);
        assert_eq!(config.point_share(), 7);
    }

    #[test]
    fn cancel_flag_stops_a_task_between_points() {
        let p = factorial();
        let campaign = Campaign::new(&p, ErrorClass::RegisterFile);
        let config = quick_config(1);
        let specs = shard_specs(&campaign, 1);
        // A pre-set flag stops the sweep before the first point.
        let cancel = AtomicBool::new(true);
        let (result, findings) = run_task_spec_with_cancel(
            &p,
            &DetectorSet::new(),
            &[4],
            &specs[0],
            &Predicate::OutputContainsErr,
            &config,
            &cancel,
            None,
        );
        assert_eq!(result.points_examined, 0);
        assert!(!result.completed, "a cancelled task is incomplete");
        assert!(findings.is_empty());
        // An unset flag reproduces run_task_spec exactly.
        let cancel = AtomicBool::new(false);
        let (a, fa) = run_task_spec_with_cancel(
            &p,
            &DetectorSet::new(),
            &[4],
            &specs[0],
            &Predicate::OutputContainsErr,
            &config,
            &cancel,
            None,
        );
        let (b, fb) = run_task_spec(
            &p,
            &DetectorSet::new(),
            &[4],
            &specs[0],
            &Predicate::OutputContainsErr,
            &config,
        );
        assert_eq!(
            (a.points_examined, a.findings, a.completed),
            (b.points_examined, b.findings, b.completed)
        );
        assert_eq!(fa, fb);
    }

    #[test]
    fn degradation_counters_render_but_do_not_move_the_digest() {
        let p = factorial();
        let campaign = Campaign::new(&p, ErrorClass::RegisterFile);
        let config = ClusterConfig {
            point_workers_hint: Some(1),
            ..quick_config(3)
        };
        let clean = run_cluster(
            &p,
            &DetectorSet::new(),
            &[4],
            &campaign,
            &Predicate::OutputContainsErr,
            &config,
        );
        let mut degraded = clean.clone();
        degraded.degraded = true;
        degraded.workers_lost = 2;
        degraded.tasks_retried = 5;
        degraded.resumed_tasks = 1;
        degraded.workers_joined = 3;
        degraded.tasks_split = 4;
        assert_eq!(
            clean.outcome_digest(),
            degraded.outcome_digest(),
            "degradation describes the schedule, not the outcome"
        );
        let text = degraded.summary();
        assert!(text.contains("DEGRADED: 2 worker(s) lost, 5 task(s) re-queued"));
        assert!(text.contains("resumed 1 task(s) from checkpoint"));
        assert!(text.contains("ELASTIC: 3 worker(s) joined, 4 shard split(s)"));
        assert!(!clean.summary().contains("DEGRADED"));
        assert!(!clean.summary().contains("ELASTIC"));
    }

    #[test]
    fn split_spec_halves_deterministically_and_preserves_order() {
        let p = factorial();
        let campaign = Campaign::new(&p, ErrorClass::RegisterFile);
        let spec = &shard_specs(&campaign, 1)[0];
        assert!(spec.points.len() >= 2, "factorial campaign is splittable");
        let (left, right) = split_spec(spec).unwrap();
        assert_eq!(left.id, spec.id);
        assert_eq!(right.id, spec.id);
        assert_eq!(left.points.len(), spec.points.len().div_ceil(2));
        let mut rejoined = left.points.clone();
        rejoined.extend(right.points.iter().copied());
        assert_eq!(rejoined, spec.points, "halves concatenate to the parent");
        // Determinism: the same spec splits the same way twice.
        assert_eq!(split_spec(spec), split_spec(spec));
        // Too small to share.
        let tiny = TaskSpec {
            id: 0,
            points: vec![spec.points[0]],
        };
        assert!(split_spec(&tiny).is_none());
        assert!(split_spec(&TaskSpec {
            id: 0,
            points: Vec::new()
        })
        .is_none());
    }

    #[test]
    fn split_run_merge_reproduces_the_unsplit_task_exactly() {
        let p = factorial();
        let campaign = Campaign::new(&p, ErrorClass::RegisterFile);
        let mut config = quick_config(1);
        config.point_workers_hint = Some(1);
        let spec = &shard_specs(&campaign, 1)[0];
        // Lift the finding cap so splitting is exactness-preserving.
        config.max_findings_per_task = spec.points.len() * config.search.max_solutions;
        assert!(split_preserves_outcome(spec, &config));
        let dets = DetectorSet::new();
        let predicate = Predicate::OutputContainsErr;
        let (whole, whole_findings) = run_task_spec(&p, &dets, &[4], spec, &predicate, &config);

        // Split recursively: left half split once more, three parts total.
        let (left, right) = split_spec(spec).unwrap();
        let (ll, lr) = split_spec(&left).unwrap();
        let parts: Vec<_> = [ll, lr, right]
            .iter()
            .map(|part| run_task_spec(&p, &dets, &[4], part, &predicate, &config))
            .collect();
        let (merged, merged_findings) = merge_part_results(parts).unwrap();

        assert_eq!(
            (
                merged.id,
                merged.points_examined,
                merged.points_total,
                merged.activated,
                merged.findings,
                merged.completed,
                merged.states_explored,
                merged.spilled_states,
            ),
            (
                whole.id,
                whole.points_examined,
                whole.points_total,
                whole.activated,
                whole.findings,
                whole.completed,
                whole.states_explored,
                whole.spilled_states,
            ),
            "every digest-visible statistic must merge back exactly"
        );
        assert_eq!(merged_findings, whole_findings, "findings in point order");
        assert!(merge_part_results(Vec::new()).is_none());
    }

    #[test]
    fn split_exactness_gate_rejects_binding_caps() {
        let p = factorial();
        let campaign = Campaign::new(&p, ErrorClass::RegisterFile);
        let spec = &shard_specs(&campaign, 1)[0];
        let mut config = quick_config(1);
        // The default cap (10) can bind on a many-point task: not exact.
        config.max_findings_per_task = 10;
        assert!(!split_preserves_outcome(spec, &config));
        // A task budget couples points through wall time: never exact.
        config.max_findings_per_task = usize::MAX;
        config.task_budget = Some(Duration::from_secs(1));
        assert!(!split_preserves_outcome(spec, &config));
        config.task_budget = None;
        assert!(split_preserves_outcome(spec, &config));
    }

    #[test]
    fn memoized_campaign_reproduces_the_digest_and_serves_the_rerun() {
        let p = factorial();
        let campaign = Campaign::new(&p, ErrorClass::RegisterFile);
        let predicate = Predicate::OutputContainsErr;
        let config = ClusterConfig {
            point_workers_hint: Some(1),
            ..quick_config(4)
        };
        assert!(memo_preserves_outcome(&config));
        let dets = DetectorSet::new();
        let store = MemoStore::for_campaign(&p, &dets);

        let off = run_cluster(&p, &dets, &[4], &campaign, &predicate, &config);
        let cold = run_cluster_with_memo(
            &p,
            &dets,
            &[4],
            &campaign,
            &predicate,
            &config,
            Some(&store),
        );
        let warm = run_cluster_with_memo(
            &p,
            &dets,
            &[4],
            &campaign,
            &predicate,
            &config,
            Some(&store),
        );

        assert_eq!(off.outcome_digest(), cold.outcome_digest());
        assert_eq!(off.outcome_digest(), warm.outcome_digest());
        assert_eq!(cold.memo_hits(), 0, "first run finds an empty store");
        assert!(!store.is_empty(), "point searches were recorded");
        assert!(warm.memo_hits() > 0, "rerun is served from the store");
        // Under the deterministic gate every sequential point search is
        // recordable (no wall-clock budget in this config), so the warm
        // rerun expands nothing at all.
        assert_eq!(
            warm.memo_states_skipped(),
            warm.states_explored(),
            "a warm rerun serves every state from the store ({} of {})",
            warm.memo_states_skipped(),
            warm.states_explored()
        );
        assert!(warm.summary().contains("memo:"));
        assert!(off.prefix_steps_saved() > 0, "prefix cache is always on");

        // A non-conforming config ignores the store instead of polluting
        // the digest: same outcome, no hits counted.
        let budgeted = ClusterConfig {
            task_budget: Some(Duration::from_secs(3600)),
            ..config.clone()
        };
        assert!(!memo_preserves_outcome(&budgeted));
        let gated = run_cluster_with_memo(
            &p,
            &dets,
            &[4],
            &campaign,
            &predicate,
            &budgeted,
            Some(&store),
        );
        assert_eq!(gated.memo_hits(), 0, "gate keeps the store out of play");
    }

    #[test]
    fn memo_serves_campaigns_at_any_point_share() {
        // Every point search is sequential whatever the hint says, so a
        // wider point share no longer keeps the store out of play.
        let p = factorial();
        let campaign = Campaign::new(&p, ErrorClass::RegisterFile);
        let predicate = Predicate::OutputContainsErr;
        let config = ClusterConfig {
            point_workers_hint: Some(2),
            ..quick_config(4)
        };
        assert!(memo_preserves_outcome(&config));
        let dets = DetectorSet::new();
        let store = MemoStore::for_campaign(&p, &dets);
        let off = run_cluster(&p, &dets, &[4], &campaign, &predicate, &config);
        let memo =
            |store| run_cluster_with_memo(&p, &dets, &[4], &campaign, &predicate, &config, store);
        let cold = memo(Some(&store));
        let warm = memo(Some(&store));
        assert!(warm.memo_hits() > 0, "the store serves the rerun");
        assert_eq!(cold.outcome_digest(), off.outcome_digest());
        assert_eq!(warm.outcome_digest(), off.outcome_digest());
    }

    #[test]
    fn summary_mentions_key_statistics() {
        let p = factorial();
        let campaign = Campaign::new(&p, ErrorClass::RegisterFile);
        let report = run_cluster(
            &p,
            &DetectorSet::new(),
            &[4],
            &campaign,
            &Predicate::OutputContainsErr,
            &quick_config(2),
        );
        let text = report.summary();
        assert!(text.contains("tasks"));
        assert!(text.contains("findings"));
        assert!(report.avg_completed_task_time() > Duration::ZERO || report.tasks_completed() == 0);
    }
}
