//! Per-layer measurement from outside: micro-timings of each layer's
//! public calls, and two benchmark-side mirrors that make the inside of a
//! campaign visible — a *task mirror* of `run_task_spec`'s point loop and
//! a *replay loop* of the sequential search — both checked against the
//! real calls' counts every traced run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sympl_asm::{DecodedProgram, Program};
use sympl_check::{Explorer, FrontierQueue, Predicate, SearchLimits, SearchReport};
use sympl_cluster::{pool_results, shard_specs, CampaignReport, Finding, TaskResult, TaskSpec};
use sympl_detect::DetectorSet;
use sympl_inject::{prepare_cached, Campaign, ErrorClass, PrefixCache};
use sympl_machine::{decode_state, encode_state, FingerprintSet, MachineState, SuccessorBuf};
use sympl_wire::{decode_message, encode_message, Message};

use crate::stats::median;
use crate::trace::{Agg, Tracer};
use crate::workloads::Target;

/// The counts of one search that the replay must reproduce.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchCounts {
    pub states_explored: usize,
    pub duplicate_hits: usize,
    pub solutions: usize,
    pub peak_frontier_len: usize,
    pub peak_frontier_bytes: usize,
    pub spilled_states: usize,
}

impl SearchCounts {
    pub fn of(r: &SearchReport) -> SearchCounts {
        SearchCounts {
            states_explored: r.states_explored,
            duplicate_hits: r.duplicate_hits,
            solutions: r.solutions.len(),
            peak_frontier_len: r.peak_frontier_len,
            peak_frontier_bytes: r.peak_frontier_bytes,
            spilled_states: r.spilled_states,
        }
    }
}

const CODEC_SAMPLES: usize = 4096;

/// One expansion in this many is timed; the rest run the same code with
/// the clock reads skipped. A clock read costs ~40 ns here and an
/// expansion has six layer boundaries, so timing every one would add
/// 10-70 % to the loop it is measuring. A spilling frontier is the
/// exception: its cost sits in a few dozen segment writes and refills of
/// milliseconds each, which a sample would mostly miss or multiply — there
/// every expansion is timed (and costs ~2 us, so the clock is affordable).
const TIMED_ONE_IN: u64 = 16;

/// Hot-loop call aggregates of the replay, summed over every search it
/// replays, plus a thinned sample of enqueued states for the codec.
pub struct ReplayAggs {
    pub pop: Agg,
    pub step: Agg,
    pub predicate: Agg,
    pub fingerprint: Agg,
    pub insert: Agg,
    pub push: Agg,
    pub wall_ns: u64,
    pub states: u64,
    pub successors: u64,
    pub duplicates: u64,
    /// Expansions so far, across searches: picks the timed ones.
    tick: u64,
    /// What one clock read costs here; taken off every timed interval,
    /// which spans exactly one read.
    clock_ns: u64,
    samples: Vec<MachineState>,
    enqueued: u64,
    stride: u64,
}

impl ReplayAggs {
    pub fn new() -> ReplayAggs {
        const READS: u32 = 4096;
        let start = Instant::now();
        let mut last = start;
        for _ in 0..READS {
            last = std::hint::black_box(Instant::now());
        }
        ReplayAggs {
            pop: Agg::default(),
            step: Agg::default(),
            predicate: Agg::default(),
            fingerprint: Agg::default(),
            insert: Agg::default(),
            push: Agg::default(),
            wall_ns: 0,
            states: 0,
            successors: 0,
            duplicates: 0,
            tick: 0,
            clock_ns: (last.duration_since(start).as_nanos() / u128::from(READS)) as u64,
            samples: Vec::new(),
            enqueued: 0,
            // Sparse from the start: a held clone makes the original's
            // next write copy, which the real engine never pays.
            stride: 64,
        }
    }

    /// Keeps every `stride`-th enqueued state (a cheap copy-on-write
    /// clone).
    fn sample(&mut self, state: &MachineState) {
        if self.enqueued.is_multiple_of(self.stride) {
            self.samples.push(state.clone());
            if self.samples.len() == 2 * CODEC_SAMPLES {
                // Thin to every other sample and halve the rate: the kept
                // set stays an every-k-th sample of everything enqueued.
                let mut keep = false;
                self.samples.retain(|_| {
                    keep = !keep;
                    keep
                });
                self.stride *= 2;
            }
        }
        self.enqueued += 1;
    }

    /// Time inside layer calls, extrapolated from the timed ones to all.
    pub fn layer_ns(&self) -> f64 {
        [
            &self.pop,
            &self.step,
            &self.predicate,
            &self.fingerprint,
            &self.insert,
            &self.push,
        ]
        .iter()
        .map(|a| a.estimated_total_ns())
        .sum()
    }

    /// Loop time outside every layer call — trace arena, accounting,
    /// drops, witness rebuilds: the replay's wall minus the layers' share.
    pub fn self_ns(&self) -> f64 {
        self.wall_ns as f64 - self.layer_ns()
    }

    pub fn aggs(&self) -> Vec<(&'static str, Agg)> {
        vec![
            ("checker.frontier_pop", self.pop.clone()),
            ("machine.step", self.step.clone()),
            ("checker.predicate", self.predicate.clone()),
            ("machine.fingerprint", self.fingerprint.clone()),
            ("machine.visited_insert", self.insert.clone()),
            ("checker.frontier_push", self.push.clone()),
        ]
    }
}

/// The clock of one expansion: reads the time only when the expansion is
/// a timed one, and otherwise just counts the call.
struct Lap {
    at: Option<Instant>,
    clock_ns: u64,
}

impl Lap {
    fn start(timed: bool, clock_ns: u64) -> Lap {
        Lap {
            at: timed.then(Instant::now),
            clock_ns,
        }
    }

    /// Books the time since the previous boundary to `agg`.
    #[inline]
    fn close(&mut self, agg: &mut Agg) {
        match &mut self.at {
            Some(at) => {
                let now = Instant::now();
                let ns = now.duration_since(*at).as_nanos() as u64;
                agg.add(ns.saturating_sub(self.clock_ns));
                *at = now;
            }
            None => agg.skip(),
        }
    }
}

/// The sequential engine's expansion loop rebuilt from the public pieces
/// it is made of (`FrontierPolicy::build`, `FrontierQueue`,
/// `FingerprintSet`, `step_into`, `fingerprint`, `Predicate::matches`),
/// with a clock read at every layer boundary of the timed expansions.
/// Same traversal, same caps, same dedup — so its counts must equal the
/// real search's. The trace-arena append rides with the frontier push it
/// precedes (together they are the engine's enqueue).
pub fn replay_search(
    program: &Program,
    detectors: &DetectorSet,
    limits: &SearchLimits,
    seeds: Vec<MachineState>,
    predicate: &Predicate,
    aggs: &mut ReplayAggs,
) -> SearchCounts {
    assert!(
        !limits.policy.is_iterative() && limits.max_time.is_none(),
        "the replay mirrors single-round, state-capped searches only"
    );
    let start = Instant::now();
    let mut counts = SearchCounts::default();
    let mut arena: Vec<(usize, usize)> = Vec::new();
    let mut visited = FingerprintSet::default();
    let mut frontier: Box<dyn FrontierQueue<usize>> =
        limits.policy.build(limits.max_frontier_bytes);
    let decoded = program.decoded();
    let mut successors = SuccessorBuf::new();

    let mut lap = Lap::start(false, aggs.clock_ns);
    for s in seeds {
        let pc = s.pc();
        let fp = s.fingerprint();
        lap.close(&mut aggs.fingerprint);
        let fresh = visited.insert(fp);
        lap.close(&mut aggs.insert);
        if fresh {
            arena.push((usize::MAX, pc));
            aggs.sample(&s);
            frontier.seed(s, arena.len() - 1);
            lap.close(&mut aggs.push);
        }
    }
    counts.peak_frontier_len = frontier.len();
    counts.peak_frontier_bytes = frontier.approx_bytes();

    let time_all = limits.max_frontier_bytes.is_some();
    loop {
        let mut lap = Lap::start(
            time_all || aggs.tick.is_multiple_of(TIMED_ONE_IN),
            aggs.clock_ns,
        );
        aggs.tick += 1;
        let popped = frontier.pop();
        lap.close(&mut aggs.pop);
        let Some((state, idx)) = popped else { break };
        if counts.states_explored >= limits.max_states {
            break;
        }
        counts.states_explored += 1;

        if state.status().is_terminal() {
            let hit = predicate.matches(&state);
            lap.close(&mut aggs.predicate);
            if hit {
                // The real engine rebuilds the witness trace here.
                let mut cursor = idx;
                let mut trace_len = 0usize;
                loop {
                    let (parent, _) = arena[cursor];
                    trace_len += 1;
                    if parent == usize::MAX {
                        break;
                    }
                    cursor = parent;
                }
                std::hint::black_box(trace_len);
                counts.solutions += 1;
                if counts.solutions >= limits.max_solutions {
                    break;
                }
            }
            continue;
        }

        state.step_into(decoded, detectors, &limits.exec, &mut successors);
        lap.close(&mut aggs.step);
        aggs.successors += successors.len() as u64;
        for succ in successors.drain() {
            let fp = succ.fingerprint();
            lap.close(&mut aggs.fingerprint);
            let fresh = visited.insert(fp);
            lap.close(&mut aggs.insert);
            if fresh {
                arena.push((idx, succ.pc()));
                aggs.sample(&succ);
                frontier.push(succ, arena.len() - 1);
                lap.close(&mut aggs.push);
            } else {
                counts.duplicate_hits += 1;
            }
        }
        counts.peak_frontier_len = counts.peak_frontier_len.max(frontier.len());
        counts.peak_frontier_bytes = counts.peak_frontier_bytes.max(frontier.approx_bytes());
    }
    counts.spilled_states = frontier.spilled_states();
    drop(frontier);
    drop(visited);
    aggs.wall_ns += start.elapsed().as_nanos() as u64;
    aggs.states += counts.states_explored as u64;
    aggs.duplicates += counts.duplicate_hits as u64;
    counts
}

/// One real sequential search, timed from outside.
pub fn real_search(
    program: &Program,
    detectors: &DetectorSet,
    limits: &SearchLimits,
    seeds: Vec<MachineState>,
    predicate: &Predicate,
) -> (SearchCounts, Duration) {
    let start = Instant::now();
    let r = Explorer::new(program, detectors)
        .with_limits(limits.clone())
        .with_workers_hint(Some(1))
        .explore_auto(seeds, predicate);
    (SearchCounts::of(&r), start.elapsed())
}

/// What the task mirror saw for one shard.
#[derive(Debug, Clone, Default)]
pub struct TaskMirror {
    pub id: usize,
    pub points_examined: usize,
    pub activated: usize,
    pub states_explored: usize,
    pub findings: usize,
    pub seeds: usize,
    pub prepare_ns: u64,
    pub search_ns: u64,
    pub wall_ns: u64,
    pub prefix_steps_saved: u64,
}

impl TaskMirror {
    pub fn matches(&self, real: &TaskResult) -> bool {
        self.id == real.id
            && self.points_examined == real.points_examined
            && self.activated == real.activated
            && self.states_explored == real.states_explored
            && self.findings == real.findings
    }
}

/// `run_task_spec`'s point loop rebuilt from the public calls it makes:
/// one `PrefixCache` per task, `prepare_cached` per point, then a search
/// under the same findings cap and `max_solutions` shrink. `search` is
/// the real engine (traced pool rep) or the replay loop (deep replay).
pub fn mirror_task(
    t: &Target,
    spec: &TaskSpec,
    tr: &Tracer,
    parent: u64,
    rep: u32,
    mut search: impl FnMut(Vec<MachineState>, &SearchLimits) -> SearchCounts,
) -> TaskMirror {
    let task_span = tr.open("cluster.task", parent, rep);
    let start = Instant::now();
    let mut m = TaskMirror {
        id: spec.id,
        ..TaskMirror::default()
    };
    let (cache, _) = tr.time("inject.prefix_cache", task_span.id, rep, || {
        PrefixCache::new(
            &t.w.program,
            &t.w.detectors,
            &t.w.input,
            &t.config.search.exec,
        )
    });
    for point in &spec.points {
        if m.findings >= t.config.max_findings_per_task {
            break;
        }
        let mut limits = t.config.search.clone();
        limits.max_solutions = limits
            .max_solutions
            .min(t.config.max_findings_per_task - m.findings);
        let t0 = Instant::now();
        let (prepared, _) = tr.time("inject.prepare", task_span.id, rep, || {
            prepare_cached(&cache, point)
        });
        m.prepare_ns += t0.elapsed().as_nanos() as u64;
        m.points_examined += 1;
        if prepared.activated {
            m.activated += 1;
        }
        if !prepared.activated || prepared.seeds.is_empty() {
            continue;
        }
        m.seeds += prepared.seeds.len();
        let t0 = Instant::now();
        let (counts, _) = tr.time("checker.explore", task_span.id, rep, || {
            search(prepared.seeds, &limits)
        });
        m.search_ns += t0.elapsed().as_nanos() as u64;
        m.states_explored += counts.states_explored;
        m.findings += counts.solutions;
    }
    m.prefix_steps_saved = cache.steps_saved();
    m.wall_ns = start.elapsed().as_nanos() as u64;
    tr.close(task_span);
    m
}

/// The traced pool rep: the campaign's shards on `workers` benchmark
/// threads, each through the task mirror around the real engine — what
/// `run_cluster` does, with a span per task, prepare and search.
pub fn traced_pool_rep(
    t: &Target,
    workers: usize,
    tr: &Tracer,
    rep: u32,
) -> (Vec<TaskMirror>, Duration) {
    let span = tr.open("rep.traced_pool", 0, rep);
    let start = Instant::now();
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<TaskMirror>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = t.specs.get(i) else { break };
                let m = mirror_task(t, spec, tr, span.id, rep, |seeds, limits| {
                    real_search(&t.w.program, &t.w.detectors, limits, seeds, &t.predicate).0
                });
                done.lock().expect("pool thread panicked").push(m);
            });
        }
    });
    let wall = start.elapsed();
    tr.close(span);
    let mut tasks = done.into_inner().expect("pool threads joined");
    tasks.sort_by_key(|m| m.id);
    (tasks, wall)
}

/// Deep replay of a whole campaign on one thread: every search runs twice
/// from the same seeds — the real engine, then the replay loop — so the
/// two walls are comparable and the counts can be checked search by
/// search. Returns (mirrors, real search ns, mismatching searches).
pub fn deep_replay_campaign(
    t: &Target,
    tr: &Tracer,
    aggs: &mut ReplayAggs,
) -> (Vec<TaskMirror>, u64, usize) {
    let span = tr.open("rep.deep_replay", 0, 0);
    let mut real_ns = 0u64;
    let mut mismatches = 0usize;
    let mirrors = t
        .specs
        .iter()
        .map(|spec| {
            mirror_task(t, spec, tr, span.id, 0, |seeds, limits| {
                let (real, wall) = real_search(
                    &t.w.program,
                    &t.w.detectors,
                    limits,
                    seeds.clone(),
                    &t.predicate,
                );
                real_ns += wall.as_nanos() as u64;
                let replayed = replay_search(
                    &t.w.program,
                    &t.w.detectors,
                    limits,
                    seeds,
                    &t.predicate,
                    aggs,
                );
                if replayed != real {
                    mismatches += 1;
                }
                real
            })
        })
        .collect();
    tr.close_with(span, aggs.aggs());
    (mirrors, real_ns, mismatches)
}

/// Codec cost over the replay's state sample: mean encode ns, mean decode
/// ns, mean encoded bytes, sample count.
pub fn codec_sample(aggs: &ReplayAggs, tr: &Tracer) -> (f64, f64, f64, usize) {
    let span = tr.open("machine.codec_sample", 0, 0);
    let (mut enc, mut dec) = (Agg::default(), Agg::default());
    let mut bytes = 0usize;
    let mut buf = Vec::new();
    let samples = &aggs.samples[..aggs.samples.len().min(CODEC_SAMPLES)];
    for s in samples {
        buf.clear();
        let t0 = Instant::now();
        encode_state(s, &mut buf);
        let t1 = Instant::now();
        let decoded = decode_state(&buf);
        let t2 = Instant::now();
        enc.add(t1.duration_since(t0).as_nanos() as u64);
        dec.add(t2.duration_since(t1).as_nanos() as u64);
        bytes += buf.len();
        assert!(
            matches!(&decoded, Ok((d, used)) if *used == buf.len() && d.fingerprint() == s.fingerprint()),
            "state codec round trip changed a sampled state"
        );
    }
    let n = samples.len();
    let out = (
        enc.mean_ns(),
        dec.mean_ns(),
        if n == 0 { 0.0 } else { bytes as f64 / n as f64 },
        n,
    );
    tr.close_with(
        span,
        vec![("machine.encode_state", enc), ("machine.decode_state", dec)],
    );
    out
}

/// Median microseconds of `rounds` timed calls, recorded as one span.
fn sample_us<T>(tr: &Tracer, name: &'static str, rounds: usize, mut f: impl FnMut() -> T) -> f64 {
    let span = tr.open(name, 0, 0);
    let samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let t0 = Instant::now();
            let out = std::hint::black_box(f());
            let us = t0.elapsed().as_nanos() as f64 / 1e3;
            drop(out); // freeing the result is the caller's cost, not the call's
            us
        })
        .collect();
    tr.close(span);
    median(&samples)
}

/// A campaign report taken apart into what `pool_results` takes.
pub fn unpool(report: &CampaignReport) -> Vec<(TaskResult, Vec<Finding>)> {
    report
        .tasks
        .iter()
        .map(|task| {
            let findings = report
                .findings
                .iter()
                .filter(|f| f.task_id == task.id)
                .cloned()
                .collect();
            (task.clone(), findings)
        })
        .collect()
}

/// Timed calls behind each micro-timing (their median is reported).
pub const MICRO_ROUNDS: usize = 21;

/// Micro-timings of single layer calls on a target's own program, points
/// and results: `(metric name, value)` pairs.
pub fn micro(t: &Target, local: &CampaignReport, tr: &Tracer) -> Vec<(&'static str, f64)> {
    const ROUNDS: usize = MICRO_ROUNDS;
    let program = &t.w.program;
    let mut out = vec![
        (
            "apps.build_us",
            sample_us(tr, "apps.build", ROUNDS, || {
                sympl_apps::resolve_workload(t.id)
            }),
        ),
        (
            "asm.decode_us",
            sample_us(tr, "asm.decode", ROUNDS, || DecodedProgram::decode(program)),
        ),
        ("asm.decoded_ops", program.decoded().stats().ops as f64),
    ];
    let golden_us = sample_us(tr, "machine.golden_run", ROUNDS, || {
        sympl_apps::golden(&t.w)
    });
    out.push((
        "machine.concrete_steps_per_s",
        t.golden_steps as f64 / (golden_us / 1e6),
    ));
    out.push((
        "inject.enumerate_us",
        sample_us(tr, "inject.enumerate", ROUNDS, || {
            Campaign::new(program, ErrorClass::RegisterFile)
        }),
    ));
    out.push((
        "cluster.shard_us",
        sample_us(tr, "cluster.shard", ROUNDS, || {
            shard_specs(&t.campaign, t.config.tasks)
        }),
    ));
    let pooled = unpool(local);
    // `pool_results` takes its input by value: make the copies up front so
    // only the pooling is timed.
    let mut copies = vec![pooled.clone(); ROUNDS];
    out.push((
        "cluster.pool_us",
        sample_us(tr, "cluster.pool", ROUNDS, || {
            pool_results(copies.pop().expect("one copy per round"), Duration::ZERO)
        }),
    ));
    out.push((
        "cluster.digest_us",
        sample_us(tr, "cluster.digest", ROUNDS, || local.outcome_digest()),
    ));

    // Wire codec, per frame: the campaign's own task frames and the
    // TaskDone frames its real results make.
    let tasks = t.task_frames();
    let dones: Vec<Message> = pooled
        .iter()
        .map(|(result, findings)| Message::TaskDone {
            result: result.clone(),
            findings: findings.clone(),
        })
        .collect();
    for (messages, enc_name, dec_name, bytes_name) in [
        (
            &tasks,
            "wire.encode_task_us",
            "wire.decode_task_us",
            "wire.task_frame_bytes",
        ),
        (
            &dones,
            "wire.encode_done_us",
            "wire.decode_done_us",
            "wire.done_frame_bytes",
        ),
    ] {
        let n = messages.len() as f64;
        let encoded: Vec<Vec<u8>> = messages
            .iter()
            .map(|m| encode_message(m).expect("benchmark predicates are wire-encodable"))
            .collect();
        let enc = sample_us(tr, "wire.encode", ROUNDS, || {
            messages
                .iter()
                .map(|m| encode_message(m).map(|b| b.len()))
                .collect::<Vec<_>>()
        });
        let dec = sample_us(tr, "wire.decode", ROUNDS, || {
            encoded
                .iter()
                .map(|b| decode_message(b).is_ok())
                .collect::<Vec<_>>()
        });
        out.push((enc_name, enc / n));
        out.push((dec_name, dec / n));
        out.push((
            bytes_name,
            encoded.iter().map(Vec::len).sum::<usize>() as f64 / n,
        ));
    }
    out
}

/// Nanoseconds per `FairScheduler::pick` over 16 backlogged clients of
/// mixed priority.
pub fn sched_pick_ns(tr: &Tracer) -> f64 {
    let clients: Vec<(u64, bool)> = (0..16).map(|i| (1 + i % 3, true)).collect();
    let mut sched = sympl_wire::FairScheduler::new();
    const PICKS: usize = 100_000;
    let us = sample_us(tr, "wire.sched_pick", 5, || {
        (0..PICKS)
            .filter_map(|_| sched.pick(&clients))
            .sum::<usize>()
    });
    us * 1e3 / PICKS as f64
}

/// Process CPU time (user + system) so far, in seconds.
pub fn process_cpu_s() -> f64 {
    // Fields 14 and 15 of /proc/self/stat are utime and stime in clock
    // ticks; the command name (field 2) may contain spaces, so count from
    // the closing parenthesis. Linux fixes USER_HZ at 100.
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let rest = s.rsplit_once(')')?.1;
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some((f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?) / 100.0)
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::tests::factorial_target;
    use sympl_cluster::run_task_spec;

    #[test]
    fn replay_reproduces_the_explorers_counts_on_factorial() {
        let t = factorial_target(None);
        let cache = PrefixCache::new(
            &t.w.program,
            &t.w.detectors,
            &t.w.input,
            &t.config.search.exec,
        );
        let mut aggs = ReplayAggs::new();
        let mut searched = 0;
        for point in &t.campaign.points {
            let seeds = prepare_cached(&cache, point).seeds;
            if seeds.is_empty() {
                continue;
            }
            let (real, _) = real_search(
                &t.w.program,
                &t.w.detectors,
                &t.config.search,
                seeds.clone(),
                &t.predicate,
            );
            let replayed = replay_search(
                &t.w.program,
                &t.w.detectors,
                &t.config.search,
                seeds,
                &t.predicate,
                &mut aggs,
            );
            assert_eq!(replayed, real, "point {point:?}");
            searched += 1;
        }
        assert!(searched > 5, "factorial has register points to search");
        assert_eq!(aggs.step.calls() + aggs.predicate.calls(), aggs.states);
        assert_eq!(aggs.fingerprint.calls(), aggs.insert.calls());
        assert!(
            aggs.step.count > 0 && aggs.step.count < aggs.step.calls(),
            "one expansion in 16 is timed"
        );
        assert!((aggs.self_ns() + aggs.layer_ns() - aggs.wall_ns as f64).abs() < 1.0);
    }

    #[test]
    fn replay_matches_under_a_state_cap_and_a_spill_window() {
        for (cap, window) in [(40, None), (usize::MAX, Some(4096))] {
            let mut t = factorial_target(window);
            t.config.search.max_states = cap;
            let seeds = t.pooled_seeds();
            let (real, _) = real_search(
                &t.w.program,
                &t.w.detectors,
                &t.config.search,
                seeds.clone(),
                &t.predicate,
            );
            let replayed = replay_search(
                &t.w.program,
                &t.w.detectors,
                &t.config.search,
                seeds,
                &t.predicate,
                &mut ReplayAggs::new(),
            );
            assert_eq!(replayed, real, "cap {cap}, window {window:?}");
            assert!(cap == usize::MAX || real.states_explored == cap);
        }
    }

    #[test]
    fn task_mirror_reproduces_run_task_spec_on_factorial() {
        let t = factorial_target(None);
        let tr = Tracer::new(true);
        let (mirrors, _) = traced_pool_rep(&t, 2, &tr, 1);
        assert_eq!(mirrors.len(), t.specs.len());
        for (m, spec) in mirrors.iter().zip(&t.specs) {
            let (real, _) = run_task_spec(
                &t.w.program,
                &t.w.detectors,
                &t.w.input,
                spec,
                &t.predicate,
                &t.config,
            );
            assert!(m.matches(&real), "{m:?} vs {real:?}");
            assert_eq!(m.prefix_steps_saved, real.prefix_steps_saved);
        }
        assert_eq!(tr.durations("cluster.task").len(), t.specs.len());
        // The deep replay agrees with the real engine search by search.
        let mut aggs = ReplayAggs::new();
        let (deep, real_ns, mismatches) = deep_replay_campaign(&t, &Tracer::new(false), &mut aggs);
        assert_eq!(mismatches, 0);
        assert!(real_ns > 0);
        assert_eq!(
            deep.iter().map(|m| m.states_explored).sum::<usize>() as u64,
            aggs.states
        );
        let (enc, dec, bytes, n) = codec_sample(&aggs, &tr);
        assert!(n > 0 && enc > 0.0 && dec > 0.0 && bytes > 0.0);
    }

    #[test]
    fn micro_reports_every_codec_and_cluster_metric() {
        let t = factorial_target(None);
        let local = t.run_local();
        let metrics = micro(&t, &local, &Tracer::new(false));
        for name in [
            "asm.decoded_ops",
            "wire.task_frame_bytes",
            "wire.done_frame_bytes",
            "cluster.digest_us",
        ] {
            assert!(
                metrics.iter().any(|(n, v)| *n == name && *v > 0.0),
                "{name} missing from {metrics:?}"
            );
        }
        assert_eq!(unpool(&local).len(), local.tasks.len());
        assert!(sched_pick_ns(&Tracer::new(false)) > 0.0);
        assert!(process_cpu_s() >= 0.0);
    }
}
