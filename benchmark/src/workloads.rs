//! The seven workloads: what each builds, what one repetition runs, and
//! the outcome counts a repetition must reproduce.

use std::hash::Hash;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use sympl_apps::Workload;
use sympl_check::{Explorer, Predicate, SearchLimits, SearchReport};
use sympl_cluster::{
    pool_results, run_cluster, shard_specs, CampaignReport, ClusterConfig, Finding, TaskResult,
    TaskSpec,
};
use sympl_inject::{prepare_cached, Campaign, ErrorClass, PrefixCache};
use sympl_machine::{ExecLimits, Fnv128Hasher, MachineState};
use sympl_wire::{
    program_digest, run_distributed_with, CampaignJob, DistOptions, Message, ServiceStats,
    TaskFrame, DEFAULT_HEARTBEAT_INTERVAL,
};

use crate::json::Json;
use crate::net::{Fleet, Probe};
use crate::trace::Tracer;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

/// Names and reasons are mirrored in `BENCHMARK.json` (a unit test keeps
/// the two in step).
pub const WORKLOADS: [WorkloadDef; 7] = [
    WorkloadDef {
        name: "tcas_campaign",
        why: "many tiny exhaustive searches: per-point and per-search fixed cost dominates, visited set and frontier stay cache-resident",
    },
    WorkloadDef {
        name: "replace_campaign",
        why: "few huge state-capped searches: state clone, frontier memory, allocator and visited-set growth dominate; per-point cost is negligible",
    },
    WorkloadDef {
        name: "replace_spill",
        why: "replace_campaign under a 16 MiB frontier window: the same frontier layer through codec and segment files, trading RSS against time",
    },
    WorkloadDef {
        name: "tcas_sweep_1w",
        why: "one big pooled search on the sequential engine, sized where per-state cost grows with the visited set",
    },
    WorkloadDef {
        name: "tcas_sweep_nw",
        why: "the same seeds exhausted on the work-stealing engine: the before/after pair for the one-engine question",
    },
    WorkloadDef {
        name: "tcas_loopback",
        why: "the tcas campaign over loopback TCP daemons plus a per-task probe: wire, service and coordinator time with almost no compute",
    },
    WorkloadDef {
        name: "two_tenants",
        why: "tcas and replace coordinators sharing one fleet: executor contention, fair scheduling and head-of-line blocking",
    },
];

/// `W`, the only concurrency dial: pool workers, daemon count and sweep
/// workers all equal it.
pub fn concurrency() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .clamp(1, 4)
}

pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

const TASKS: usize = 16;
const MAX_FINDINGS_PER_TASK: usize = 10;
const TCAS_MAX_STATES: usize = 300_000;
const REPLACE_MAX_STATES: usize = 120_000;
const REPLACE_TENANT_MAX_STATES: usize = 20_000;
const SPILL_WINDOW_BYTES: usize = 16 << 20;
const SWEEP_1W_MAX_STATES: usize = 450_000;
const SWEEP_NW_MAX_STATES: usize = 2_000_000;

fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The tcas input for `seed`. Seed 0 is the bundled evaluation input;
/// any other seed moves both aircraft by the same altitude offset, which
/// changes every concrete value the searches carry but no comparison the
/// error-free run makes — so every seed is the same amount of work (state
/// counts stay within 1 %) and runs on different seeds are comparable.
pub fn tcas_input(seed: u64) -> Vec<i64> {
    let mut input = sympl_apps::tcas_input::upward_advisory();
    if seed != 0 {
        let offset = 1 + (splitmix64(seed) % 399) as i64;
        input[3] += offset; // Own_Tracked_Alt
        input[5] += offset; // Other_Tracked_Alt
    }
    input
}

/// The replace input for `seed`. Seed 0 is the bundled `[a-c]x` / `Z` /
/// `axbxdx`; other seeds draw the substitution character and the line's
/// one non-matching character, keeping the match structure while changing
/// the values. The two alphabets are the characters measured to leave the
/// work alone: every substitution letter but `S` (which collides with a
/// value the program holds and shrinks the frontier by a sixth), and the
/// fillers `d..=k` (from `t` on, the 20 k-state tenant explores 14 % more
/// states). Within them, state counts stay within 1.5 % of seed 0's.
pub fn replace_input(seed: u64) -> Vec<i64> {
    if seed == 0 {
        return sympl_apps::replace().input;
    }
    const SUBS: &[u8] = b"ABCDEFGHIJKLMNOPQRTUVWXYZ";
    const FILLERS: &[u8] = b"defghijk"; // outside [a-c], never x
    let r = splitmix64(seed);
    let sub = char::from(SUBS[(r % SUBS.len() as u64) as usize]);
    let filler = char::from(FILLERS[((r >> 8) % FILLERS.len() as u64) as usize]);
    sympl_apps::replace_input::encode("[a-c]x", &sub.to_string(), &format!("axbx{filler}x"))
}

/// One program under test with its campaign, ready to run.
pub struct Target {
    pub id: &'static str,
    pub w: Workload,
    pub golden_steps: u64,
    pub campaign: Campaign,
    pub predicate: Predicate,
    pub config: ClusterConfig,
    pub specs: Vec<TaskSpec>,
}

impl Target {
    /// Builds the target through the same layer calls a campaign binary
    /// makes, each under its own span.
    fn build(
        id: &'static str,
        input: Vec<i64>,
        max_states: usize,
        max_frontier_bytes: Option<usize>,
        workers: usize,
        tr: &Tracer,
        parent: u64,
    ) -> Target {
        let (w, _) = tr.time("apps.build", parent, 0, || {
            sympl_apps::resolve_workload(id)
                .expect("tcas and replace are bundled workloads")
                .with_input(input)
        });
        tr.time("asm.decode", parent, 0, || {
            let _ = w.program.decoded();
        });
        let (golden, _) = tr.time("machine.golden_run", parent, 0, || sympl_apps::golden(&w));
        let (campaign, _) = tr.time("inject.enumerate", parent, 0, || {
            Campaign::new(&w.program, ErrorClass::RegisterFile)
        });
        let (specs, _) = tr.time("cluster.shard", parent, 0, || shard_specs(&campaign, TASKS));
        // Schedule-independent the way the digest gates do it: sequential
        // point searches, no wall-clock budget anywhere, state caps only.
        let config = ClusterConfig {
            workers,
            tasks: TASKS,
            search: SearchLimits {
                exec: ExecLimits::with_max_steps(w.max_steps),
                max_states,
                max_solutions: 10,
                max_time: None,
                max_frontier_bytes,
                ..SearchLimits::default()
            },
            task_budget: None,
            max_findings_per_task: MAX_FINDINGS_PER_TASK,
            point_workers_hint: Some(1),
        };
        Target {
            id,
            predicate: Predicate::WrongOutput {
                expected: golden.output_ints(),
            },
            golden_steps: golden.steps(),
            w,
            campaign,
            config,
            specs,
        }
    }

    fn tcas(seed: u64, workers: usize, tr: &Tracer, parent: u64) -> Target {
        Target::build(
            "tcas",
            tcas_input(seed),
            TCAS_MAX_STATES,
            None,
            workers,
            tr,
            parent,
        )
    }

    pub fn job(&self) -> CampaignJob<'_> {
        CampaignJob {
            program: &self.w.program,
            program_id: self.id,
            input: &self.w.input,
            campaign: &self.campaign,
            predicate: &self.predicate,
            config: &self.config,
        }
    }

    /// The campaign in-process: the reference every other path must hit.
    pub fn run_local(&self) -> CampaignReport {
        run_cluster(
            &self.w.program,
            &self.w.detectors,
            &self.w.input,
            &self.campaign,
            &self.predicate,
            &self.config,
        )
    }

    /// The frames a coordinator would send for this campaign's shards.
    pub fn task_frames(&self) -> Vec<Message> {
        let digest = program_digest(&self.w.program);
        self.specs
            .iter()
            .map(|spec| {
                Message::Task(TaskFrame {
                    program_id: self.id.to_string(),
                    program_digest: digest,
                    input: self.w.input.clone(),
                    spec: spec.clone(),
                    predicate: self.predicate.clone(),
                    search: self.config.search.clone(),
                    task_budget: None,
                    max_findings: self.config.max_findings_per_task,
                    point_workers: 1,
                    heartbeat_interval: DEFAULT_HEARTBEAT_INTERVAL,
                })
            })
            .collect()
    }

    /// Every point's seed states pooled into one list (point order).
    pub fn pooled_seeds(&self) -> Vec<MachineState> {
        let cache = PrefixCache::new(
            &self.w.program,
            &self.w.detectors,
            &self.w.input,
            &self.config.search.exec,
        );
        self.campaign
            .points
            .iter()
            .flat_map(|p| prepare_cached(&cache, p).seeds)
            .collect()
    }
}

/// The outcome of one repetition that must repeat exactly: same inputs,
/// same counts, on every rep, run and commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counts {
    pub points: usize,
    pub tasks: usize,
    pub tasks_completed: usize,
    pub states_explored: usize,
    pub findings: usize,
    pub spilled_states: usize,
    pub digest: String,
}

impl Counts {
    pub fn of_campaign(points: usize, r: &CampaignReport) -> Counts {
        Counts {
            points,
            tasks: r.tasks.len(),
            tasks_completed: r.tasks_completed(),
            states_explored: r.states_explored(),
            findings: r.findings.len(),
            spilled_states: r.spilled_states(),
            digest: format!("{:032x}", r.outcome_digest()),
        }
    }

    /// A single search counts as one task, complete when it exhausted.
    /// The digest covers the outcome-shaped fields (solutions in report
    /// order, which both engines make canonical).
    pub fn of_search(points: usize, r: &SearchReport) -> Counts {
        let mut h = Fnv128Hasher::new();
        (
            r.states_explored,
            r.duplicate_hits,
            r.terminals.halted,
            r.terminals.crashed,
            r.terminals.hung,
            r.terminals.detected,
            r.exhausted,
            r.solutions.len(),
        )
            .hash(&mut h);
        for s in &r.solutions {
            s.state.fingerprint().0.hash(&mut h);
        }
        Counts {
            points,
            tasks: 1,
            tasks_completed: usize::from(r.exhausted),
            states_explored: r.states_explored,
            findings: r.solutions.len(),
            spilled_states: r.spilled_states,
            digest: format!("{:032x}", h.finish128()),
        }
    }

    /// Two campaigns run side by side: counts add, digests pair up.
    pub fn joined(a: &Counts, b: &Counts) -> Counts {
        Counts {
            points: a.points + b.points,
            tasks: a.tasks + b.tasks,
            tasks_completed: a.tasks_completed + b.tasks_completed,
            states_explored: a.states_explored + b.states_explored,
            findings: a.findings + b.findings,
            spilled_states: a.spilled_states + b.spilled_states,
            digest: format!("{}+{}", a.digest, b.digest),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("points", Json::count(self.points)),
            ("tasks", Json::count(self.tasks)),
            ("tasks_completed", Json::count(self.tasks_completed)),
            ("states_explored", Json::count(self.states_explored)),
            ("findings", Json::count(self.findings)),
            ("spilled_states", Json::count(self.spilled_states)),
            ("outcome_digest", Json::str(&self.digest)),
        ])
    }

    pub fn from_json(v: &Json) -> Option<Counts> {
        let n = |k: &str| v.get(k)?.as_f64().map(|x| x as usize);
        Some(Counts {
            points: n("points")?,
            tasks: n("tasks")?,
            tasks_completed: n("tasks_completed")?,
            states_explored: n("states_explored")?,
            findings: n("findings")?,
            spilled_states: n("spilled_states")?,
            digest: v.get("outcome_digest")?.as_str()?.to_string(),
        })
    }
}

/// One repetition as measured.
pub struct Rep {
    pub counts: Counts,
    pub wall: Duration,
    /// The task turnaround this rep showed (ms): the mean time a shard
    /// spent on its pool worker, or the one pooled search. `None` over the
    /// wire — there the probe measures turnaround task by task.
    pub task_ms: Option<f64>,
    /// Operations attempted and failed (tasks, plus the rep itself).
    pub ops: usize,
    pub failed: usize,
    /// The full reports (findings carry whole machine states). Callers
    /// that keep many reps drop these so the benchmark's own bookkeeping
    /// stays out of `peak_rss_mb`.
    pub campaigns: Vec<CampaignReport>,
    pub search: Option<SearchReport>,
}

/// What a workload holds between repetitions.
#[allow(clippy::large_enum_variant)] // one value per process: boxing would buy nothing
pub enum Shape {
    Campaign(Target),
    Sweep {
        target: Target,
        seeds: Vec<MachineState>,
        limits: SearchLimits,
        predicate: Predicate,
        workers: usize,
    },
    Loopback {
        target: Target,
        fleet: Fleet,
        probe: Probe,
    },
    TwoTenants {
        tcas: Target,
        replace: Target,
        fleet: Fleet,
        probe: Probe,
    },
}

/// A workload set up and ready to repeat.
pub struct Live {
    pub name: &'static str,
    pub shape: Shape,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn tenant_options(label: &str, priority: u64) -> DistOptions<'static> {
    DistOptions {
        client_label: Some(label.to_string()),
        client_priority: priority,
        ..DistOptions::default()
    }
}

impl Live {
    /// Everything from the workload's name to a state where repetitions
    /// can start: programs built, golden runs done, points enumerated and
    /// sharded, seeds pooled, daemons bound, the probe's session open.
    /// This whole call is what `setup_s` times.
    pub fn setup(
        name: &str,
        seed: u64,
        w: usize,
        tr: &Tracer,
        parent: u64,
    ) -> Result<Live, String> {
        let def = WORKLOADS
            .iter()
            .find(|d| d.name == name)
            .ok_or_else(|| format!("unknown workload `{name}`"))?;
        let replace = |max_states, window| {
            Target::build(
                "replace",
                replace_input(seed),
                max_states,
                window,
                w,
                tr,
                parent,
            )
        };
        let fleet_and_probe = || -> Result<(Fleet, Probe), String> {
            let (fleet, _) = tr.time("wire.fleet_bind", parent, 0, || Fleet::start(w));
            let fleet = fleet.map_err(|e| format!("cannot bind loopback daemons: {e}"))?;
            let (probe, _) = tr.time("wire.session_open", parent, 0, || {
                Probe::open(&fleet.addrs[0], "probe", 1)
            });
            let probe = probe.map_err(|e| format!("cannot open the probe session: {e}"))?;
            Ok((fleet, probe))
        };
        let sweep = |workers: usize, max_states: usize| {
            let target = Target::tcas(seed, w, tr, parent);
            let (seeds, _) = tr.time("inject.pool_seeds", parent, 0, || target.pooled_seeds());
            Shape::Sweep {
                limits: SearchLimits {
                    max_states,
                    max_solutions: usize::MAX,
                    ..target.config.search.clone()
                },
                // The paper's catastrophic-advisory query: tcas prints 2.
                predicate: Predicate::ExactOutput { output: vec![2] },
                seeds,
                workers,
                target,
            }
        };
        let shape = match def.name {
            "tcas_campaign" => Shape::Campaign(Target::tcas(seed, w, tr, parent)),
            "replace_campaign" => Shape::Campaign(replace(REPLACE_MAX_STATES, None)),
            "replace_spill" => {
                Shape::Campaign(replace(REPLACE_MAX_STATES, Some(SPILL_WINDOW_BYTES)))
            }
            "tcas_sweep_1w" => sweep(1, SWEEP_1W_MAX_STATES),
            "tcas_sweep_nw" => {
                if w < 2 {
                    return Err("skipped: W=1 (the work-stealing engine needs two CPUs)".into());
                }
                sweep(w, SWEEP_NW_MAX_STATES)
            }
            "tcas_loopback" => {
                let target = Target::tcas(seed, w, tr, parent);
                let (fleet, probe) = fleet_and_probe()?;
                Shape::Loopback {
                    target,
                    fleet,
                    probe,
                }
            }
            "two_tenants" => {
                let tcas = Target::tcas(seed, w, tr, parent);
                let replace = replace(REPLACE_TENANT_MAX_STATES, None);
                let (fleet, probe) = fleet_and_probe()?;
                Shape::TwoTenants {
                    tcas,
                    replace,
                    fleet,
                    probe,
                }
            }
            other => unreachable!("workload table and setup disagree on `{other}`"),
        };
        Ok(Live {
            name: def.name,
            shape,
        })
    }

    /// The target whose campaign the in-process layers are measured on.
    pub fn main_target(&self) -> &Target {
        match &self.shape {
            Shape::Campaign(t) => t,
            Shape::Sweep { target, .. } | Shape::Loopback { target, .. } => target,
            Shape::TwoTenants { tcas, .. } => tcas,
        }
    }

    /// What a networked workload's reps must reproduce: the same
    /// campaigns run in-process. `None` for in-process workloads, whose
    /// reps *are* the reference.
    pub fn local_reference(&self) -> Option<Counts> {
        let local = |t: &Target| Counts::of_campaign(t.campaign.len(), &t.run_local());
        match &self.shape {
            Shape::Loopback { target, .. } => Some(local(target)),
            Shape::TwoTenants { tcas, replace, .. } => {
                Some(Counts::joined(&local(tcas), &local(replace)))
            }
            Shape::Campaign(_) | Shape::Sweep { .. } => None,
        }
    }

    /// One repetition: the workload's public entry point, start to pooled
    /// result, on a closed loop (the next rep starts when this returns).
    pub fn rep(&self) -> Result<Rep, String> {
        let start = Instant::now();
        match &self.shape {
            Shape::Campaign(t) => {
                let report = t.run_local();
                let wall = start.elapsed();
                Ok(Rep {
                    counts: Counts::of_campaign(t.campaign.len(), &report),
                    wall,
                    task_ms: Some(
                        report.tasks.iter().map(|t| ms(t.elapsed)).sum::<f64>()
                            / report.tasks.len() as f64,
                    ),
                    ops: report.tasks.len() + 1,
                    failed: 0,
                    campaigns: vec![report],
                    search: None,
                })
            }
            Shape::Sweep {
                target,
                seeds,
                limits,
                predicate,
                workers,
            } => {
                let report = Explorer::new(&target.w.program, &target.w.detectors)
                    .with_limits(limits.clone())
                    .with_workers_hint(Some(*workers))
                    .explore_auto(seeds.clone(), predicate);
                let wall = start.elapsed();
                Ok(Rep {
                    counts: Counts::of_search(target.campaign.len(), &report),
                    wall,
                    task_ms: Some(ms(wall)),
                    ops: 2,
                    failed: 0,
                    campaigns: Vec::new(),
                    search: Some(report),
                })
            }
            Shape::Loopback { target, fleet, .. } => {
                let report =
                    run_distributed_with(&target.job(), &fleet.addrs, &DistOptions::default())
                        .map_err(|e| format!("loopback campaign failed: {e}"))?;
                let wall = start.elapsed();
                Ok(Rep {
                    counts: Counts::of_campaign(target.campaign.len(), &report),
                    wall,
                    task_ms: None,
                    ops: report.tasks.len() + 1,
                    failed: report.tasks_retried + report.workers_lost,
                    campaigns: vec![report],
                    search: None,
                })
            }
            Shape::TwoTenants {
                tcas,
                replace,
                fleet,
                ..
            } => {
                let (a, b) = std::thread::scope(|scope| {
                    let a = scope.spawn(|| {
                        run_distributed_with(&tcas.job(), &fleet.addrs, &tenant_options("tcas", 1))
                    });
                    let b = scope.spawn(|| {
                        run_distributed_with(
                            &replace.job(),
                            &fleet.addrs,
                            &tenant_options("replace", 2),
                        )
                    });
                    (a.join(), b.join())
                });
                let wall = start.elapsed();
                let unwrap = |r: std::thread::Result<Result<CampaignReport, _>>, who: &str| {
                    r.map_err(|_| format!("the {who} coordinator panicked"))?
                        .map_err(|e| format!("the {who} tenant's campaign failed: {e}"))
                };
                let (a, b) = (unwrap(a, "tcas")?, unwrap(b, "replace")?);
                Ok(Rep {
                    counts: Counts::joined(
                        &Counts::of_campaign(tcas.campaign.len(), &a),
                        &Counts::of_campaign(replace.campaign.len(), &b),
                    ),
                    wall,
                    task_ms: None,
                    ops: a.tasks.len() + b.tasks.len() + 1,
                    failed: a.tasks_retried + a.workers_lost + b.tasks_retried + b.workers_lost,
                    campaigns: vec![a, b],
                    search: None,
                })
            }
        }
    }

    /// Closes the probe session, drains the fleet, and returns each
    /// daemon's final accounting (empty for in-process workloads).
    pub fn teardown(self) -> Result<Vec<ServiceStats>, String> {
        match self.shape {
            Shape::Campaign(_) | Shape::Sweep { .. } => Ok(Vec::new()),
            Shape::Loopback { fleet, probe, .. } | Shape::TwoTenants { fleet, probe, .. } => {
                drop(probe);
                fleet.shutdown()
            }
        }
    }
}

/// What the turnaround probe saw.
#[derive(Default)]
pub struct ProbeOutcome {
    pub turnaround_ms: Vec<f64>,
    pub heartbeats: usize,
    pub failed: usize,
    /// Reply payload sizes, one per task.
    pub reply_bytes: Vec<usize>,
    /// The first full round's replies, in shard order.
    pub first_round: Vec<(TaskResult, Vec<Finding>)>,
}

impl ProbeOutcome {
    /// The first round pooled exactly as a coordinator would pool it.
    pub fn pooled_digest(&self) -> String {
        let report = pool_results(self.first_round.clone(), Duration::ZERO);
        format!("{:032x}", report.outcome_digest())
    }
}

impl Live {
    /// The turnaround probe: the tcas shards submitted one at a time over
    /// the already-open session to daemon 0, each timed send → `TaskDone`,
    /// for `box_len` and at least one full round. Under `two_tenants` a
    /// replace coordinator loops against the same fleet meanwhile.
    pub fn probe(&mut self, box_len: Duration) -> Result<ProbeOutcome, String> {
        let (tcas, background, fleet, probe) = match &mut self.shape {
            Shape::Loopback {
                target,
                fleet,
                probe,
            } => (&*target, None, &*fleet, probe),
            Shape::TwoTenants {
                tcas,
                replace,
                fleet,
                probe,
            } => (&*tcas, Some(&*replace), &*fleet, probe),
            Shape::Campaign(_) | Shape::Sweep { .. } => return Ok(ProbeOutcome::default()),
        };
        let frames = tcas.task_frames();
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let noise = background.map(|replace| {
                let stop = &stop;
                scope.spawn(move || -> Result<(), String> {
                    while !stop.load(Ordering::SeqCst) {
                        run_distributed_with(
                            &replace.job(),
                            &fleet.addrs,
                            &tenant_options("replace-background", 2),
                        )
                        .map_err(|e| format!("background replace campaign failed: {e}"))?;
                    }
                    Ok(())
                })
            });
            let mut out = ProbeOutcome::default();
            let start = Instant::now();
            let mut result = Ok(());
            'probe: while start.elapsed() < box_len || out.turnaround_ms.len() < frames.len() {
                for frame in &frames {
                    match probe.submit(frame) {
                        Ok(t) => {
                            out.turnaround_ms.push(ms(t.wall));
                            out.heartbeats += t.heartbeats;
                            out.reply_bytes.push(t.reply_bytes);
                            match t.done {
                                Some(done) if out.first_round.len() < frames.len() => {
                                    out.first_round.push(done);
                                }
                                Some(_) => {}
                                None => out.failed += 1,
                            }
                        }
                        Err(e) => {
                            result = Err(format!("probe task failed: {e}"));
                            break 'probe;
                        }
                    }
                    if start.elapsed() >= box_len && out.turnaround_ms.len() >= frames.len() {
                        break 'probe;
                    }
                }
            }
            stop.store(true, Ordering::SeqCst);
            if let Some(noise) = noise {
                noise
                    .join()
                    .map_err(|_| "the background coordinator panicked".to_string())??;
            }
            result.map(|()| out)
        })
    }
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// A small, exhaustively searchable target for the mirror tests.
    pub fn factorial_target(window: Option<usize>) -> Target {
        let input = sympl_apps::factorial().input;
        Target::build(
            "factorial",
            input,
            100_000,
            window,
            2,
            &Tracer::new(false),
            0,
        )
    }

    #[test]
    fn seed_zero_is_the_bundled_input_and_other_seeds_vary_it() {
        assert_eq!(tcas_input(0), sympl_apps::tcas().input);
        assert_eq!(replace_input(0), sympl_apps::replace().input);
        assert_eq!(tcas_input(5), tcas_input(5), "same seed, same input");
        assert_ne!(tcas_input(5), tcas_input(0));
        let distinct: std::collections::HashSet<Vec<i64>> = (1..40).map(replace_input).collect();
        assert!(
            distinct.len() > 10,
            "seeds must actually vary the replace input"
        );
        for seed in 1..200 {
            let t = tcas_input(seed);
            assert!(t[3] < t[5], "own aircraft stays below the intruder");
            assert_eq!(
                t[5] - t[3],
                100,
                "the altitude gap is what the logic compares"
            );
            let r = replace_input(seed);
            assert_eq!(r.len(), sympl_apps::replace().input.len());
            let (sub, filler) = (r[8], r[r.len() - 2]);
            assert!((i64::from(b'd')..=i64::from(b'k')).contains(&filler));
            assert!((i64::from(b'A')..=i64::from(b'Z')).contains(&sub) && sub != i64::from(b'S'));
        }
    }

    #[test]
    fn seeded_tcas_keeps_the_golden_advisory_and_the_work() {
        let tr = Tracer::new(false);
        let base = Target::tcas(0, 2, &tr, 0);
        let base_states = base.run_local().states_explored();
        for seed in [1, 2, 3] {
            let t = Target::tcas(seed, 2, &tr, 0);
            assert!(
                matches!(&t.predicate, Predicate::WrongOutput { expected } if expected == &[1])
            );
            let states = t.run_local().states_explored();
            let drift = (states as f64 - base_states as f64).abs() / base_states as f64;
            assert!(
                drift < 0.01,
                "seed {seed}: {states} vs {base_states} states"
            );
        }
    }

    #[test]
    fn counts_round_trip_through_json_and_join() {
        let t = factorial_target(None);
        let c = Counts::of_campaign(t.campaign.len(), &t.run_local());
        assert_eq!(Counts::from_json(&c.to_json()), Some(c.clone()));
        assert!(c.tasks > 0 && c.tasks_completed == c.tasks && c.digest.len() == 32);
        let both = Counts::joined(&c, &c);
        assert_eq!(both.states_explored, 2 * c.states_explored);
        assert_eq!(both.digest, format!("{}+{}", c.digest, c.digest));
        assert_eq!(
            Counts::from_json(&Json::obj([("points", Json::count(1))])),
            None
        );
    }

    #[test]
    fn probe_replies_are_the_in_process_task_results() {
        // One tcas shard through a real loopback daemon, against
        // run_task_spec on the same shard.
        let tr = Tracer::new(false);
        let mut live = Live::setup("tcas_loopback", 0, 1, &tr, 0).unwrap();
        let local = live.main_target().run_local();
        let frames = live.main_target().task_frames();
        let Shape::Loopback { probe, .. } = &mut live.shape else {
            panic!("tcas_loopback is a loopback shape");
        };
        let reply = probe.submit(&frames[3]).unwrap();
        let (done, findings) = reply.done.expect("a TaskDone, not an Error frame");
        let real = &local.tasks[3];
        assert_eq!(
            (
                done.id,
                done.points_examined,
                done.activated,
                done.states_explored,
                done.findings
            ),
            (
                real.id,
                real.points_examined,
                real.activated,
                real.states_explored,
                real.findings
            )
        );
        assert_eq!(findings.len(), real.findings);
        assert!(reply.reply_bytes > 0 && reply.wall > Duration::ZERO);
        let stats = live.teardown().unwrap();
        assert_eq!(stats.len(), 1);
        assert_eq!(
            stats[0].clients.iter().map(|c| c.completed).sum::<usize>(),
            1
        );
    }
}
