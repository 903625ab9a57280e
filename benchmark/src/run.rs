//! One workload, one process: set up, warm up, repeat inside the time
//! box, check every repetition, and report. With `--trace 0` it measures
//! the end-to-end metrics and records nothing; with `--trace 1` it runs
//! the traced phases and reports the per-layer metrics.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use sympl_wire::ServiceStats;

use crate::json::Json;
use crate::layers::{self, ReplayAggs, SearchCounts, TaskMirror};
use crate::metrics::{MetricSet, END_TO_END, PER_LAYER};
use crate::net::{Echo, Probe};
use crate::stats::{highest_backed_percentile, median, quantile, Summary};
use crate::trace::Tracer;
use crate::workloads::{concurrency, Counts, Live, ProbeOutcome, Rep, Shape};

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Skip the pinned-reference check (the parent is re-recording it).
    pub record: bool,
}

/// Set-ups per run; `setup_s` is their median. Cheap set-ups repeat up to
/// the larger count while they fit the time allowance.
const MIN_SETUPS: u32 = 7;
const MAX_SETUPS: u32 = 31;
const SETUP_ALLOWANCE: Duration = Duration::from_millis(300);
const MIN_REPS: usize = 3;

pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

/// The pinned seed-0 outcome of `workload`, from `expected.json`.
fn pinned(workload: &str) -> Result<Counts, String> {
    let path = bench_dir().join("expected.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text)?
        .get(workload)
        .and_then(Counts::from_json)
        .ok_or_else(|| format!("expected.json has no complete entry for `{workload}`"))
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU time the hypervisor took from this guest so far, in seconds, summed
/// over CPUs (`steal` in `/proc/stat`, USER_HZ = 100). On a shared host
/// this is the interference that explains a slow run.
fn host_steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Everything checked against every repetition, and the tally of what
/// was attempted and what failed.
struct Gate {
    /// `expected.json` (seed 0 only).
    pinned: Option<Counts>,
    /// The same campaigns in-process (networked workloads only).
    local: Option<Counts>,
    /// The warm-up rep: later reps must repeat it exactly.
    first: Option<Counts>,
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
}

impl Gate {
    fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(problem);
        }
    }

    fn check(&mut self, rep: &Rep) {
        self.attempted += rep.ops;
        self.failed += rep.failed;
        if rep.failed > 0 && self.problems.len() < 8 {
            self.problems.push(format!(
                "{} task(s) retried or worker(s) lost in one rep",
                rep.failed
            ));
        }
        let mismatch = [
            ("expected.json", &self.pinned),
            ("the in-process campaign", &self.local),
            ("the first rep", &self.first),
        ]
        .into_iter()
        .find_map(|(what, want)| {
            let want = want.as_ref().filter(|want| **want != rep.counts)?;
            Some(format!(
                "rep differs from {what}: got {:?}, want {want:?}",
                rep.counts
            ))
        });
        if let Some(problem) = mismatch {
            self.fail(problem);
            return;
        }
        if let Some(search) = &rep.search {
            // The parallel engine's counts are only deterministic when it
            // sweeps the whole space.
            if search.workers > 1 && !search.exhausted {
                self.fail("the parallel sweep did not exhaust its space".into());
            }
        }
        if self.first.is_none() {
            self.first = Some(rep.counts.clone());
        }
    }

    fn check_probe(&mut self, probe: &ProbeOutcome, tcas_digest: &str) {
        self.attempted += probe.turnaround_ms.len();
        self.failed += probe.failed;
        if probe.failed > 0 {
            self.problems.push(format!(
                "{} probe task(s) answered with an Error frame",
                probe.failed
            ));
        }
        let pooled = probe.pooled_digest();
        if !probe.turnaround_ms.is_empty() && pooled != tcas_digest {
            self.fail(format!(
                "the probe's pooled TaskDones digest to {pooled}, the campaign to {tcas_digest}"
            ));
        }
    }
}

/// Repeats `live.rep()` on a closed loop until `box_len` has passed and
/// at least [`MIN_REPS`] reps are in. Only the first rep keeps its full
/// reports; the rest keep their timings.
fn rep_box(live: &Live, box_len: Duration, gate: &mut Gate) -> Result<Vec<Rep>, String> {
    let start = Instant::now();
    let mut reps = Vec::new();
    while start.elapsed() < box_len || reps.len() < MIN_REPS {
        let mut rep = live.rep()?;
        gate.check(&rep);
        if !reps.is_empty() {
            rep.campaigns = Vec::new();
            rep.search = None;
        }
        reps.push(rep);
    }
    Ok(reps)
}

fn walls_s(reps: &[Rep]) -> Vec<f64> {
    reps.iter().map(|r| r.wall.as_secs_f64()).collect()
}

fn summary_json(s: &Summary) -> Json {
    Json::obj([
        ("n", Json::count(s.n)),
        ("min", Json::Num(s.min)),
        ("q1", Json::Num(s.q1)),
        ("median", Json::Num(s.median)),
        ("q3", Json::Num(s.q3)),
        ("max", Json::Num(s.max)),
    ])
}

/// The tcas campaign's digest inside a (possibly joined) counts digest.
fn tcas_digest(counts: &Counts) -> &str {
    counts.digest.split('+').next().unwrap_or("")
}

/// Runs one workload in this process and returns its result document.
pub fn run(args: &RunArgs) -> Result<Json, String> {
    // Spilling frontiers write under the system temp directory; keep them
    // inside the benchmark's own tree. Set before any thread exists.
    let tmp = out_dir().join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::env::set_var("TMPDIR", &tmp);

    let (run_start, steal_start) = (Instant::now(), host_steal_s());
    let w = concurrency();
    let tr = Tracer::new(args.trace);
    let box_len = Duration::from_secs_f64(args.seconds);

    // Set-up, several times over: the median is `setup_s`. Tear-down
    // between set-ups (daemon drain) is not timed.
    let mut setup_s = Vec::new();
    let mut live: Option<Live> = None;
    let setups_start = Instant::now();
    for i in 0..MAX_SETUPS {
        if i >= MIN_SETUPS && setups_start.elapsed() >= SETUP_ALLOWANCE {
            break;
        }
        if let Some(old) = live.take() {
            old.teardown()?;
        }
        let span = tr.open("setup", 0, i);
        let start = Instant::now();
        let built = Live::setup(&args.workload, args.seed, w, &tr, span.id)?;
        setup_s.push(start.elapsed().as_secs_f64());
        tr.close(span);
        live = Some(built);
    }
    let mut live = live.expect("at least MIN_SETUPS set-ups ran");
    let setup_breakdown = setup_breakdown_us(&tr);

    let mut gate = Gate {
        pinned: (args.seed == 0 && !args.record)
            .then(|| pinned(live.name))
            .transpose()?,
        local: live.local_reference(),
        first: None,
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };

    // Warm-up: one untimed rep (cold allocator, page faults, lazy decode).
    let warm = live.rep()?;
    gate.check(&warm);
    let first_rep_s = warm.wall.as_secs_f64();
    let counts = warm.counts.clone();

    let has_probe = matches!(
        live.shape,
        Shape::Loopback { .. } | Shape::TwoTenants { .. }
    );
    let mut e2e = MetricSet::new(&END_TO_END);
    let mut per_layer = MetricSet::new(&PER_LAYER);
    let mut detail: Vec<(String, Json)> = Vec::new();

    if !args.trace {
        let reps_box = if has_probe { box_len / 2 } else { box_len };
        let reps = rep_box(&live, reps_box, &mut gate)?;
        let probe = live.probe(box_len / 2)?;
        gate.check_probe(&probe, tcas_digest(&counts));

        // In-process, repetitions replay identical work, so whatever
        // separates them is the host interfering, and interference only
        // ever slows: the fastest repetition is the estimate of the
        // program's own cost that repeats best from run to run (on this
        // shared host it spreads half as wide as the median). Over the
        // wire a repetition's wall is paced by the daemons' poll timers;
        // its fastest value is a lucky alignment, not a cost, and there the
        // median is what repeats. Both are reported with their quartiles.
        let wall = Summary::of(&walls_s(&reps));
        let fastest = reps
            .iter()
            .min_by_key(|r| r.wall)
            .expect("rep_box returns at least MIN_REPS reps");
        let setup = Summary::of(&setup_s);
        e2e.set_spread("setup_s", setup.median, setup.n, setup.q1, setup.q3);
        for (name, amount) in [
            ("points_per_s", counts.points),
            ("states_per_s", counts.states_explored),
        ] {
            let per_s = |wall_s: f64| amount as f64 / wall_s;
            let basis = if has_probe { wall.median } else { wall.min };
            e2e.set_spread(name, per_s(basis), wall.n, per_s(wall.q3), per_s(wall.q1));
        }
        let turnaround: Vec<f64> = if has_probe {
            probe.turnaround_ms.clone()
        } else {
            reps.iter().filter_map(|r| r.task_ms).collect()
        };
        let turn = Summary::of(&turnaround);
        // Over the wire: the median probe task. In-process no caller waits
        // on a single shard; the fastest repetition's figure stands in.
        let turn_value = if has_probe {
            turn.median
        } else {
            fastest.task_ms.unwrap_or(turn.min)
        };
        e2e.set_spread(
            "task_turnaround_p50_ms",
            turn_value,
            turn.n,
            turn.q1,
            turn.q3,
        );
        detail.push(("rep_wall_s".into(), summary_json(&wall)));
        detail.push(("turnaround_ms".into(), turnaround_json(&turnaround)));
        live.teardown()?;
        // Read last: the high-water mark covers the whole run.
        e2e.set("peak_rss_mb", peak_rss_mb(), 1);
    } else {
        per_layer.set("cluster.first_rep_s", first_rep_s, 1);
        detail.push(("setup_breakdown_us".into(), setup_breakdown));
        let reference = rep_box(&live, box_len / 4, &mut gate)?;
        let wall = Summary::of(&walls_s(&reference));
        detail.push(("rep_wall_s".into(), summary_json(&wall)));
        let stats = traced_phases(
            live,
            w,
            &tr,
            &reference,
            wall.median,
            box_len / 4,
            &counts,
            &mut gate,
            &mut per_layer,
        )?;
        live_fairness(&stats, &mut per_layer);
        let spans = out_dir().join(format!("spans-{}.json", args.workload));
        std::fs::write(&spans, tr.to_json(&args.workload).pretty())
            .map_err(|e| format!("{}: {e}", spans.display()))?;
        detail.push(("spans_file".into(), Json::str(spans.display().to_string())));
        detail.push(("spans".into(), Json::count(tr.spans().len())));
    }

    let set = if args.trace { &per_layer } else { &e2e };
    let metrics = Json::Obj(
        set.iter()
            .map(|(def, m)| {
                (
                    def.name.to_string(),
                    Json::obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(def.unit)),
                        ("samples", Json::count(m.samples)),
                        ("q1", Json::Num(m.q1)),
                        ("q3", Json::Num(m.q3)),
                    ]),
                )
            })
            .collect(),
    );
    let mut doc = vec![
        ("workload".to_string(), Json::str(&args.workload)),
        ("seed".to_string(), Json::Num(args.seed as f64)),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("seconds".to_string(), Json::Num(args.seconds)),
        ("W".to_string(), Json::count(w)),
        ("correct".to_string(), Json::Bool(gate.failed == 0)),
        ("attempted".to_string(), Json::count(gate.attempted.max(1))),
        ("failed".to_string(), Json::count(gate.failed)),
        (
            "problems".to_string(),
            Json::Arr(gate.problems.iter().map(Json::str).collect()),
        ),
        ("counts".to_string(), counts.to_json()),
        ("metrics".to_string(), metrics),
    ];
    doc.extend(detail);
    // Share of the host's CPU capacity stolen from the guest during the run.
    let capacity_s = run_start.elapsed().as_secs_f64() * crate::workloads::host_cpus() as f64;
    doc.push((
        "host_steal_share".to_string(),
        Json::Num((host_steal_s() - steal_start) / capacity_s),
    ));
    Ok(Json::Obj(doc))
}

/// Where set-up time goes: the median of each layer call made under the
/// `setup` spans, and the set-up's own self time (input generation, config
/// assembly). Empty with tracing off.
fn setup_breakdown_us(tr: &Tracer) -> Json {
    let median_us = |ns: &[f64]| Json::Num(median(ns) / 1e3);
    let mut pairs: Vec<(String, Json)> = [
        "apps.build",
        "asm.decode",
        "machine.golden_run",
        "inject.enumerate",
        "cluster.shard",
        "inject.pool_seeds",
        "wire.fleet_bind",
        "wire.session_open",
    ]
    .iter()
    .filter_map(|name| {
        let ns = tr.durations(name);
        (!ns.is_empty()).then(|| (name.to_string(), median_us(&ns)))
    })
    .collect();
    let own: Vec<f64> = tr
        .spans()
        .iter()
        .filter(|s| s.name == "setup")
        .map(|s| tr.self_ns(s.id) as f64)
        .collect();
    if !own.is_empty() {
        pairs.push(("self".to_string(), median_us(&own)));
    }
    Json::Obj(pairs)
}

/// Median, the highest percentile with ten samples beyond it, and the
/// maximum of the turnaround samples.
fn turnaround_json(samples: &[f64]) -> Json {
    if samples.is_empty() {
        return Json::Null;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mut pairs = vec![
        ("n".to_string(), Json::count(sorted.len())),
        ("p50".to_string(), Json::Num(quantile(&sorted, 0.5))),
        ("max".to_string(), Json::Num(sorted[sorted.len() - 1])),
    ];
    match highest_backed_percentile(sorted.len()) {
        Some(p) if p > 50 => {
            pairs.push((
                format!("p{p}"),
                Json::Num(quantile(&sorted, f64::from(p) / 100.0)),
            ));
        }
        Some(_) => {}
        None => pairs.push(("low_n".to_string(), Json::Bool(true))),
    }
    Json::Obj(pairs)
}

fn live_fairness(stats: &[ServiceStats], per_layer: &mut MetricSet) {
    if let Some(worst) = stats
        .iter()
        .map(ServiceStats::fairness_ratio)
        .max_by(f64::total_cmp)
    {
        per_layer.set("wire.fairness_ratio", worst, stats.len());
    }
}

/// Cluster-layer metrics from one traced pool rep.
fn cluster_metrics(mirrors: &[TaskMirror], wall: Duration, w: usize, m: &mut MetricSet) {
    let task_ms: Vec<f64> = mirrors.iter().map(|t| t.wall_ns as f64 / 1e6).collect();
    let total: f64 = task_ms.iter().sum();
    let max = task_ms.iter().copied().fold(0.0, f64::max);
    let n = task_ms.len();
    m.set("cluster.task_ms_p50", median(&task_ms), n);
    m.set("cluster.task_ms_max", max, n);
    m.set("cluster.imbalance", max / (total / n as f64), n);
    m.set(
        "cluster.pool_efficiency",
        total / (w as f64 * wall.as_secs_f64() * 1e3),
        n,
    );
    let points: usize = mirrors.iter().map(|t| t.points_examined).sum();
    let prepare_ns: u64 = mirrors.iter().map(|t| t.prepare_ns).sum();
    let task_ns: u64 = mirrors.iter().map(|t| t.wall_ns).sum();
    m.set(
        "inject.prepare_us",
        prepare_ns as f64 / 1e3 / points as f64,
        points,
    );
    m.set(
        "inject.prepare_share",
        prepare_ns as f64 / task_ns as f64,
        points,
    );
    m.set(
        "inject.seeds_per_point",
        mirrors.iter().map(|t| t.seeds).sum::<usize>() as f64 / points as f64,
        points,
    );
    m.set(
        "inject.points_activated",
        mirrors.iter().map(|t| t.activated).sum::<usize>() as f64,
        points,
    );
    m.set(
        "inject.prefix_steps_saved",
        mirrors.iter().map(|t| t.prefix_steps_saved).sum::<u64>() as f64,
        points,
    );
}

/// Replay-loop metrics: per-call means of every layer boundary, and the
/// attribution of the replay's wall to layers and loop self time.
fn replay_metrics(aggs: &ReplayAggs, real_ns: u64, tr: &Tracer, m: &mut MetricSet) {
    // Sample counts are the timed calls the means rest on.
    let calls = |a: &crate::trace::Agg| a.count as usize;
    m.set("machine.step_ns", aggs.step.mean_ns(), calls(&aggs.step));
    m.set(
        "machine.successors_per_step",
        aggs.successors as f64 / aggs.step.calls().max(1) as f64,
        calls(&aggs.step),
    );
    m.set(
        "machine.fingerprint_ns",
        aggs.fingerprint.mean_ns(),
        calls(&aggs.fingerprint),
    );
    m.set(
        "machine.visited_insert_ns",
        aggs.insert.mean_ns(),
        calls(&aggs.insert),
    );
    m.set(
        "machine.visited_insert_last_decile_ns",
        aggs.insert.last_decile_mean_ns(),
        calls(&aggs.insert) / 10,
    );
    m.set(
        "checker.frontier_push_ns",
        aggs.push.mean_ns(),
        calls(&aggs.push),
    );
    m.set(
        "checker.frontier_pop_ns",
        aggs.pop.mean_ns(),
        calls(&aggs.pop),
    );
    m.set(
        "checker.predicate_ns",
        aggs.predicate.mean_ns(),
        calls(&aggs.predicate),
    );
    let states = aggs.states.max(1) as f64;
    m.set(
        "checker.explore_ns_per_state",
        real_ns as f64 / states,
        aggs.states as usize,
    );
    m.set(
        "checker.replay_ns_per_state",
        aggs.wall_ns as f64 / states,
        aggs.states as usize,
    );
    // The layers' share is an estimate (sampled, clock cost taken off); on
    // a cheap loop it can exceed the wall by a few ns per state.
    m.set(
        "checker.loop_self_ns_per_state",
        (aggs.self_ns() / states).max(0.0),
        aggs.states as usize,
    );
    let (enc, dec, bytes, n) = layers::codec_sample(aggs, tr);
    m.set("machine.encode_state_ns", enc, n);
    m.set("machine.decode_state_ns", dec, n);
    m.set("machine.state_bytes", bytes, n);
}

fn search_shape_metrics(c: &SearchCounts, successors: u64, m: &mut MetricSet) {
    m.set("checker.states_explored", c.states_explored as f64, 1);
    m.set(
        "checker.duplicate_ratio",
        c.duplicate_hits as f64 / successors.max(1) as f64,
        successors as usize,
    );
    m.set("checker.peak_frontier_len", c.peak_frontier_len as f64, 1);
    m.set(
        "checker.peak_frontier_bytes",
        c.peak_frontier_bytes as f64,
        1,
    );
    m.set("checker.spilled_states", c.spilled_states as f64, 1);
}

/// The traced phases of one workload. Returns the fleet's final
/// accounting (the workload is torn down here, after its last phase).
#[allow(clippy::too_many_arguments)] // one call site; the arguments are the run's whole state
fn traced_phases(
    mut live: Live,
    w: usize,
    tr: &Tracer,
    reference: &[Rep],
    untraced_wall_s: f64,
    probe_box: Duration,
    counts: &Counts,
    gate: &mut Gate,
    m: &mut MetricSet,
) -> Result<Vec<ServiceStats>, String> {
    // Layer micro-timings on the main target's own program and results.
    let local = live.main_target().run_local();
    for (name, value) in layers::micro(live.main_target(), &local, tr) {
        m.set(name, value, layers::MICRO_ROUNDS);
    }

    // The traced pool rep: real engine, spans per task/prepare/search,
    // checked shard by shard against the in-process campaign.
    let mut traced_wall_s = None;
    if !matches!(live.shape, Shape::Sweep { .. }) {
        let target = live.main_target();
        let (mirrors, wall) = layers::traced_pool_rep(target, w, tr, 1);
        gate.attempted += mirrors.len();
        for (mirror, real) in mirrors.iter().zip(&local.tasks) {
            if !mirror.matches(real) {
                gate.fail(format!(
                    "task mirror diverged from run_task_spec: {mirror:?} vs {real:?}"
                ));
            }
        }
        cluster_metrics(&mirrors, wall, w, m);
        traced_wall_s = Some(wall.as_secs_f64());
    }

    match &live.shape {
        Shape::Campaign(target) => {
            let mut aggs = ReplayAggs::new();
            let (_, real_ns, mismatches) = layers::deep_replay_campaign(target, tr, &mut aggs);
            gate.attempted += 1;
            if mismatches > 0 {
                gate.fail(format!(
                    "{mismatches} replayed search(es) diverged from the Explorer"
                ));
            }
            replay_metrics(&aggs, real_ns, tr, m);
            let c = SearchCounts {
                states_explored: local.states_explored(),
                // Not pooled into campaign reports; the replay (checked
                // search by search above) has them.
                duplicate_hits: aggs.duplicates as usize,
                peak_frontier_len: local.peak_frontier_len(),
                peak_frontier_bytes: local.peak_frontier_bytes(),
                spilled_states: local.spilled_states(),
                solutions: local.findings.len(),
            };
            search_shape_metrics(&c, aggs.successors, m);
        }
        Shape::Sweep {
            target,
            seeds,
            limits,
            predicate,
            workers,
        } => {
            let real = reference[0]
                .search
                .as_ref()
                .expect("sweep reps carry their report");
            let real_counts = SearchCounts::of(real);
            if *workers == 1 {
                // The real search, then the replay, back to back from the
                // same seeds: the two walls share whatever the host is
                // doing at the moment, so their ratio is the attribution
                // check — not the replay against a median taken earlier.
                let span = tr.open("rep.deep_replay", 0, 0);
                let (adjacent, adjacent_wall) = layers::real_search(
                    &target.w.program,
                    &target.w.detectors,
                    limits,
                    seeds.clone(),
                    predicate,
                );
                let mut aggs = ReplayAggs::new();
                let replayed = layers::replay_search(
                    &target.w.program,
                    &target.w.detectors,
                    limits,
                    seeds.clone(),
                    predicate,
                    &mut aggs,
                );
                tr.close_with(span, aggs.aggs());
                gate.attempted += 1;
                if replayed != real_counts || adjacent != real_counts {
                    gate.fail(format!(
                        "the replay diverged from the Explorer: {replayed:?} vs {real_counts:?}"
                    ));
                }
                replay_metrics(&aggs, adjacent_wall.as_nanos() as u64, tr, m);
                search_shape_metrics(&real_counts, aggs.successors, m);
                traced_wall_s = Some(aggs.wall_ns as f64 / 1e9);
            } else {
                // The parallel loop cannot be rebuilt from outside: whole-
                // call metrics only, around one more real rep.
                let cpu0 = layers::process_cpu_s();
                let (rep, _) = tr.time("rep.traced", 0, 1, || live.rep());
                let rep = rep?;
                let cpu = layers::process_cpu_s() - cpu0;
                gate.check(&rep);
                let wall = rep.wall.as_secs_f64();
                let report = rep.search.as_ref().expect("sweep reps carry their report");
                m.set("checker.steals", report.steals as f64, 1);
                m.set(
                    "checker.parallel_cpu_util",
                    cpu / (wall * *workers as f64),
                    1,
                );
                m.set(
                    "checker.explore_ns_per_state",
                    wall * 1e9 / report.states_explored as f64,
                    report.states_explored,
                );
                search_shape_metrics(
                    &real_counts,
                    (real.states_explored + real.duplicate_hits) as u64,
                    m,
                );
                traced_wall_s = Some(wall);
            }
        }
        Shape::Loopback { .. } | Shape::TwoTenants { .. } => {
            let in_process_p50 = m.get("cluster.task_ms_p50");
            let (rep, _) = tr.time("rep.traced", 0, 1, || live.rep());
            let rep = rep?;
            gate.check(&rep);
            traced_wall_s = Some(rep.wall.as_secs_f64());
            let worker_s: f64 = rep
                .campaigns
                .iter()
                .flat_map(|c| c.tasks.iter())
                .map(|t| t.elapsed.as_secs_f64())
                .sum();
            m.set(
                "wire.coordinator_overhead_s",
                rep.wall.as_secs_f64() - worker_s / w as f64,
                1,
            );
            m.set(
                "wire.tasks_retried",
                rep.campaigns.iter().map(|c| c.tasks_retried).sum::<usize>() as f64,
                1,
            );
            m.set(
                "wire.workers_lost",
                rep.campaigns.iter().map(|c| c.workers_lost).sum::<usize>() as f64,
                1,
            );

            let (probe, _) = tr.time("wire.probe", 0, 0, || live.probe(probe_box));
            let probe = probe?;
            gate.check_probe(&probe, tcas_digest(counts));
            let mut sorted = probe.turnaround_ms.clone();
            sorted.sort_by(f64::total_cmp);
            let n = sorted.len();
            m.set("wire.turnaround_p90_ms", quantile(&sorted, 0.9), n);
            m.set("wire.turnaround_max_ms", sorted[n - 1], n);
            m.set(
                "wire.service_overhead_ms",
                quantile(&sorted, 0.5) - in_process_p50,
                n,
            );
            m.set(
                "wire.heartbeats_per_task",
                probe.heartbeats as f64 / n as f64,
                n,
            );
            // The probe's replies must be the in-process results.
            for ((done, _), real) in probe.first_round.iter().zip(&local.tasks) {
                if (
                    done.points_examined,
                    done.activated,
                    done.states_explored,
                    done.findings,
                ) != (
                    real.points_examined,
                    real.activated,
                    real.states_explored,
                    real.findings,
                ) {
                    gate.fail(format!(
                        "probe reply diverged from run_task_spec on shard {}",
                        real.id
                    ));
                }
            }

            let done_bytes = median(
                &probe
                    .reply_bytes
                    .iter()
                    .map(|&b| b as f64)
                    .collect::<Vec<_>>(),
            );
            let echo = Echo::start().map_err(|e| format!("cannot start the echo peer: {e}"))?;
            let (echo_us, _) = tr.time("wire.frame_echo", 0, 0, || {
                echo.measure(done_bytes as usize, 200)
            });
            m.set(
                "wire.frame_echo_us",
                echo_us.map_err(|e| format!("echo round trip failed: {e}"))?,
                200,
            );
            let addr = match &live.shape {
                Shape::Loopback { fleet, .. } | Shape::TwoTenants { fleet, .. } => {
                    fleet.addrs[0].clone()
                }
                _ => unreachable!("matched a networked shape above"),
            };
            let mut opens = Vec::new();
            for _ in 0..9 {
                let (session, ns) = tr.time("wire.session_open", 0, 0, || {
                    Probe::open(&addr, "probe-open", 1)
                });
                session.map_err(|e| format!("cannot open a session: {e}"))?;
                opens.push(ns as f64 / 1e3);
            }
            m.set("wire.session_open_us", median(&opens), opens.len());
            m.set("wire.sched_pick_ns", layers::sched_pick_ns(tr), 5);
        }
    }

    if let Some(traced) = traced_wall_s {
        m.set("trace.overhead_ratio", traced / untraced_wall_s, 1);
    }

    live.teardown()
}
