//! Engine-throughput trajectory: writes `BENCH_explore.json`.
//!
//! For each paper workload (factorial, tcas, replace) plus the bubble/gcd
//! kernels, this binary builds one **pooled full-sweep search** — the seed
//! states of *every* register-file injection point, deduplicated by the
//! engine — and runs it on the `Explorer`. Each run becomes one JSON
//! entry `{workload, states, seconds, states_per_second, workers, steals,
//! peak_frontier_len, peak_frontier_bytes, spilled_states, exhausted}`, so
//! BENCH_explore.json tracks raw engine speed and frontier memory across
//! revisions (`workers` is 1 and `steals` 0 on every search row).
//! `spill_frontier_tcas` / `spill_frontier_replace` rows rerun the
//! tcas/replace sweeps under a small (512 KiB) in-RAM frontier window, so
//! the disk-spilling path's throughput is tracked alongside.
//!
//! Two extra micro-bench rows time `MachineState::fingerprint()` itself on
//! a bulky state: `fingerprint_rolling` (the O(1) cached-fold mix the
//! engines call per enqueued successor) against `fingerprint_scratch` (the
//! O(|state|) full-walk reference), with `states_per_second` holding
//! digests/sec. The ratio is the visited-set digest win the rolling scheme
//! buys.
//!
//! `decode_<workload>` rows time the one-off lowering of each bundled
//! program into its dense [`sympl_asm::DecodedProgram`] IR (the cost the
//! engines pay once per search): `states` holds the ops emitted, `seconds`
//! the mean decode time, `states_per_second` ops lowered per second, and
//! `peak_frontier_len` the superinstruction pairs fused.
//!
//! `memo_cold_<workload>` / `memo_warm_<workload>` rows run the full
//! register-error campaign through the cluster layer against one
//! cross-campaign [`sympl_check::MemoStore`] — cold populating it, warm
//! served from it: `states_per_second` holds injection points per second,
//! `peak_frontier_len` the memo hits, and `peak_frontier_bytes` the
//! states served from the store instead of re-expanded.
//!
//! Usage: `bench_json [--quick] [--out PATH] [--only P,..]`
//!
//! `--quick` shrinks the budgets for CI smoke runs; `--only` keeps only
//! row groups whose names start with one of the given comma-separated
//! prefixes (e.g. `--only tcas,decode_` — CI smoke uses it to skip the
//! micro-benches). The memo rows' cluster pool uses one worker per
//! hardware thread.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use sympl_apps::Workload;
use sympl_check::{Explorer, MemoStore, Predicate, SearchLimits, SearchReport};
use sympl_cluster::{memo_preserves_outcome, run_cluster_with_memo, ClusterConfig};
use sympl_inject::{enumerate_points, prepare, Campaign, ErrorClass};
use sympl_machine::{ExecLimits, MachineState, OutItem};
use sympl_symbolic::{Constraint, Location, Value};

struct Entry {
    workload: String,
    states: usize,
    seconds: f64,
    states_per_second: f64,
    workers: usize,
    steals: usize,
    peak_frontier_len: usize,
    peak_frontier_bytes: usize,
    spilled_states: usize,
    exhausted: bool,
}

impl Entry {
    fn from_report(workload: impl Into<String>, report: &SearchReport) -> Self {
        Entry {
            workload: workload.into(),
            states: report.states_explored,
            seconds: report.elapsed.as_secs_f64(),
            states_per_second: report.states_per_second,
            workers: report.workers,
            steals: report.steals,
            peak_frontier_len: report.peak_frontier_len,
            peak_frontier_bytes: report.peak_frontier_bytes,
            spilled_states: report.spilled_states,
            exhausted: report.exhausted,
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"states\": {}, \"seconds\": {:.6}, \
             \"states_per_second\": {:.1}, \"workers\": {}, \"steals\": {}, \
             \"peak_frontier_len\": {}, \"peak_frontier_bytes\": {}, \
             \"spilled_states\": {}, \"exhausted\": {}}}",
            self.workload,
            self.states,
            self.seconds,
            self.states_per_second,
            self.workers,
            self.steals,
            self.peak_frontier_len,
            self.peak_frontier_bytes,
            self.spilled_states,
            self.exhausted
        )
    }
}

/// Seeds of every register-file injection point of `w`, pooled into one
/// giant search (the engine deduplicates overlapping frontiers).
fn pooled_register_seeds(w: &Workload, exec: &ExecLimits) -> Vec<MachineState> {
    let mut seeds = Vec::new();
    for point in enumerate_points(&w.program, &ErrorClass::RegisterFile) {
        seeds.extend(prepare(&w.program, &w.detectors, &w.input, &point, exec).seeds);
    }
    seeds
}

/// Times the rolling `fingerprint()` against the from-scratch reference on
/// a state with campaign-scale bulk (a few hundred memory words, symbolic
/// registers, constraints, output) — the shape tcas/replace states take
/// deep into a sweep, where a full-walk digest hurts most.
fn fingerprint_micro_bench(quick: bool) -> Vec<Entry> {
    let mut s = MachineState::with_input(vec![3, 1, 4, 1, 5, 9, 2, 6]);
    s.load_memory((0..512u64).map(|i| (i * 8, (i as i64) * 3 - 64)));
    for r in [3u8, 5, 8, 11] {
        s.set_reg(sympl_asm::Reg::r(r), Value::Err);
        let _ = s
            .constraints_mut()
            .constrain(Location::reg(r), Constraint::Gt(-(i64::from(r))));
    }
    for i in 0..16 {
        s.push_output(OutItem::Val(Value::Int(i)));
    }
    assert_eq!(
        s.fingerprint(),
        s.fingerprint_from_scratch(),
        "micro-bench state must have a consistent rolling digest"
    );

    let iters: u32 = if quick { 20_000 } else { 500_000 };
    let timed = |f: &dyn Fn(&MachineState) -> sympl_machine::Fingerprint| {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f(black_box(&s)));
        }
        start.elapsed()
    };
    // From-scratch first so cache warmth, if anything, favours the
    // reference.
    let scratch = timed(&MachineState::fingerprint_from_scratch);
    let rolling = timed(&MachineState::fingerprint);

    let entry = |name: &'static str, elapsed: std::time::Duration| Entry {
        workload: name.into(),
        states: iters as usize,
        seconds: elapsed.as_secs_f64(),
        states_per_second: f64::from(iters) / elapsed.as_secs_f64().max(1e-9),
        workers: 1,
        steals: 0,
        peak_frontier_len: 0,
        peak_frontier_bytes: 0,
        spilled_states: 0,
        exhausted: true,
    };
    let rolling = entry("fingerprint_rolling", rolling);
    let scratch = entry("fingerprint_scratch", scratch);
    println!(
        "fingerprint: rolling {:>12.0} digests/s vs from-scratch {:>12.0} digests/s ({:.1}x)",
        rolling.states_per_second,
        scratch.states_per_second,
        rolling.states_per_second / scratch.states_per_second.max(1e-9)
    );
    vec![rolling, scratch]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    let out_path = flag("--out")
        .cloned()
        .unwrap_or_else(|| "BENCH_explore.json".into());
    // Row filter: `--only tcas,decode_` keeps only rows whose name starts
    // with one of the prefixes. An absent/empty flag keeps everything.
    let only: Vec<String> = flag("--only")
        .map(|s| {
            s.split(',')
                .map(str::trim)
                .filter(|p| !p.is_empty())
                .map(String::from)
                .collect()
        })
        .unwrap_or_default();
    let wanted = |name: &str| only.is_empty() || only.iter().any(|p| name.starts_with(p.as_str()));

    // (workload, exec-step bound, state budget): fixed budgets so entries
    // are comparable across revisions.
    let configs: Vec<(Workload, u64, usize)> = vec![
        {
            let w = sympl_apps::factorial().with_input(vec![6]);
            let (steps, states) = if quick {
                (800, 5_000)
            } else {
                (1_500, 100_000)
            };
            (w, steps, states)
        },
        {
            let w = sympl_apps::tcas();
            let steps = if quick {
                w.max_steps.min(2_000)
            } else {
                w.max_steps
            };
            let states = if quick { 8_000 } else { 150_000 };
            (w, steps, states)
        },
        {
            let w = sympl_apps::replace();
            let steps = if quick { 2_000 } else { 6_000 };
            let states = if quick { 8_000 } else { 100_000 };
            (w, steps, states)
        },
        {
            let w = sympl_apps::bubble_sort();
            let steps = if quick { 1_000 } else { 3_000 };
            let states = if quick { 8_000 } else { 100_000 };
            (w, steps, states)
        },
        {
            let w = sympl_apps::gcd();
            let steps = if quick { 800 } else { 1_500 };
            let states = if quick { 5_000 } else { 50_000 };
            (w, steps, states)
        },
    ];

    let mut entries: Vec<Entry> = if wanted("fingerprint_") {
        fingerprint_micro_bench(quick)
    } else {
        Vec::new()
    };

    // Decode-time rows: the one-off cost of lowering each bundled program
    // into the dense IR every engine dispatches over. Schema mapping (the
    // Entry shape is fixed across all rows): `states` = ops emitted,
    // `seconds` = mean decode wall time, `states_per_second` = ops lowered
    // per second, `peak_frontier_len` = superinstruction pairs fused.
    let decode_iters: u32 = if quick { 200 } else { 2_000 };
    for w in sympl_apps::all_workloads() {
        let name = format!("decode_{}", w.name);
        if !wanted(&name) {
            continue;
        }
        // Call the lowering directly: `Program::decoded()` memoizes, which
        // is exactly what this row must not measure.
        let start = Instant::now();
        for _ in 0..decode_iters {
            black_box(sympl_asm::DecodedProgram::decode(black_box(&w.program)));
        }
        let seconds = start.elapsed().as_secs_f64() / f64::from(decode_iters);
        let stats = w.program.decoded().stats();
        println!(
            "{name}: {} ops, {} superinstructions in {:.1}us ({:.0} ops/s)",
            stats.ops,
            stats.superinstructions,
            seconds * 1e6,
            stats.ops as f64 / seconds.max(1e-9)
        );
        entries.push(Entry {
            workload: name,
            states: stats.ops,
            seconds,
            states_per_second: stats.ops as f64 / seconds.max(1e-9),
            workers: 1,
            steals: 0,
            peak_frontier_len: stats.superinstructions,
            peak_frontier_bytes: 0,
            spilled_states: 0,
            exhausted: true,
        });
    }

    for (w, steps, max_states) in &configs {
        if !wanted(w.name) {
            continue;
        }
        let exec = ExecLimits::with_max_steps(*steps);
        let limits = SearchLimits {
            exec: exec.clone(),
            max_states: *max_states,
            max_solutions: usize::MAX,
            max_time: None,
            ..SearchLimits::default()
        };
        let prep_start = Instant::now();
        let seeds = pooled_register_seeds(w, &exec);
        println!(
            "{}: {} pooled seeds from the register full-sweep ({:?} prep)",
            w.name,
            seeds.len(),
            prep_start.elapsed()
        );

        let report = Explorer::new(&w.program, &w.detectors)
            .with_limits(limits)
            .explore(seeds, &Predicate::Any);
        println!(
            "  {:>8} states in {:>8.3}s ({:>9.0} states/s)",
            report.states_explored,
            report.elapsed.as_secs_f64(),
            report.states_per_second
        );
        entries.push(Entry::from_report(w.name, &report));
    }

    // Disk-spilling sweep rows: the same tcas/replace full sweeps under a
    // deliberately small in-RAM frontier window, so BENCH_explore.json
    // tracks the spill path's throughput (and its overhead vs the
    // unbounded rows above) across revisions.
    let spill_window: usize = 512 * 1024;
    let spill_configs: Vec<(Workload, u64, usize)> = vec![
        {
            let w = sympl_apps::tcas();
            let steps = if quick {
                w.max_steps.min(2_000)
            } else {
                w.max_steps
            };
            let states = if quick { 8_000 } else { 150_000 };
            (w, steps, states)
        },
        {
            let w = sympl_apps::replace();
            let steps = if quick { 2_000 } else { 6_000 };
            let states = if quick { 8_000 } else { 100_000 };
            (w, steps, states)
        },
    ];
    for (w, steps, max_states) in &spill_configs {
        if !wanted(&format!("spill_frontier_{}", w.name)) {
            continue;
        }
        let exec = ExecLimits::with_max_steps(*steps);
        let limits = SearchLimits {
            exec: exec.clone(),
            max_states: *max_states,
            max_solutions: usize::MAX,
            max_time: None,
            max_frontier_bytes: Some(spill_window),
            ..SearchLimits::default()
        };
        let seeds = pooled_register_seeds(w, &exec);
        let spilling = Explorer::new(&w.program, &w.detectors)
            .with_limits(limits)
            .explore(seeds, &Predicate::Any);
        println!(
            "spill_frontier_{}: {:>8} states in {:>8.3}s ({:>9.0} states/s, \
             peak {} states / ~{} bytes in RAM, {} spilled)",
            w.name,
            spilling.states_explored,
            spilling.elapsed.as_secs_f64(),
            spilling.states_per_second,
            spilling.peak_frontier_len,
            spilling.peak_frontier_bytes,
            spilling.spilled_states
        );
        entries.push(Entry::from_report(
            format!("spill_frontier_{}", w.name),
            &spilling,
        ));
    }

    // Cross-campaign memoization rows: the full register-error campaign
    // through the cluster layer against one shared store — cold populating
    // it, warm served from it — under the memo exactness gate (no task
    // budget). Schema mapping: `states` = campaign states explored,
    // `seconds` = campaign wall time, `states_per_second` = injection
    // points per second, `peak_frontier_len` = memo hits,
    // `peak_frontier_bytes` = states served from the store, `exhausted` =
    // every task completed.
    let memo_configs: Vec<(Workload, u64)> = vec![
        {
            let w = sympl_apps::tcas();
            let steps = if quick {
                w.max_steps.min(2_000)
            } else {
                w.max_steps
            };
            (w, steps)
        },
        {
            let w = sympl_apps::replace();
            (w, if quick { 2_000 } else { 6_000 })
        },
    ];
    for (w, steps) in &memo_configs {
        if !wanted(&format!("memo_cold_{}", w.name)) && !wanted(&format!("memo_warm_{}", w.name)) {
            continue;
        }
        let config = ClusterConfig {
            workers,
            tasks: 64,
            search: SearchLimits {
                exec: ExecLimits::with_max_steps(*steps),
                max_states: if quick { 8_000 } else { 100_000 },
                max_solutions: 10,
                max_time: None,
                ..SearchLimits::default()
            },
            task_budget: None,
            max_findings_per_task: 10,
            point_workers_hint: Some(1),
        };
        assert!(memo_preserves_outcome(&config));
        let campaign = Campaign::new(&w.program, ErrorClass::RegisterFile);
        let store = MemoStore::for_campaign(&w.program, &w.detectors);
        let mut digests = Vec::new();
        for leg in ["cold", "warm"] {
            let name = format!("memo_{leg}_{}", w.name);
            let report = run_cluster_with_memo(
                &w.program,
                &w.detectors,
                &w.input,
                &campaign,
                &Predicate::Any,
                &config,
                Some(&store),
            );
            let points: usize = report.tasks.iter().map(|t| t.points_examined).sum();
            let seconds = report.elapsed.as_secs_f64();
            println!(
                "{name}: {points} points in {seconds:.3}s ({:.0} points/s), \
                 {} hit(s) served {} of {} states ({:.0}% hit rate)",
                points as f64 / seconds.max(1e-9),
                report.memo_hits(),
                report.memo_states_skipped(),
                report.states_explored(),
                100.0 * report.memo_states_skipped() as f64
                    / report.states_explored().max(1) as f64
            );
            digests.push(report.outcome_digest());
            if wanted(&name) {
                entries.push(Entry {
                    workload: name,
                    states: report.states_explored(),
                    seconds,
                    states_per_second: points as f64 / seconds.max(1e-9),
                    workers: config.workers,
                    steals: 0,
                    peak_frontier_len: report.memo_hits(),
                    peak_frontier_bytes: report.memo_states_skipped(),
                    spilled_states: report.spilled_states(),
                    exhausted: report.tasks_completed() == report.tasks.len(),
                });
            }
        }
        assert_eq!(
            digests[0], digests[1],
            "{}: warm campaign must reproduce the cold outcome digest",
            w.name
        );
    }

    let mut json = String::from("[\n");
    for (i, e) in entries.iter().enumerate() {
        let _ = writeln!(
            json,
            "  {}{}",
            e.to_json(),
            if i + 1 < entries.len() { "," } else { "" }
        );
    }
    json.push_str("]\n");
    std::fs::write(&out_path, json).expect("failed to write the benchmark JSON");
    println!("\nwrote {} entries to {out_path}", entries.len());
}
