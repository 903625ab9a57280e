//! The `campaign` subcommand: the paper's register-error campaign on one
//! bundled workload.
//!
//! For every register used by every instruction, inject `err` just before
//! the use and search for runs that throw no exception and print a wrong
//! value. The campaign is sharded into tasks (the paper's cluster jobs),
//! each capped at 10 findings and a wall budget. `tcas` is the §6.2 sweep,
//! `replace` the §6.4 one; `spin` is a synthetic stressor whose point
//! searches run long enough for fleet-membership events to land
//! mid-campaign (`just elastic-demo`).
//!
//! In-process by default. The fleet flags make the command a coordinator
//! that drives `symplfied serve` workers over TCP (`--spawn-workers`
//! starts them as child processes); `--verify-local` then re-runs the
//! campaign in-process and gates on the two outcome digests matching.
//! Gate failures exit 2, run failures exit 1, usage errors print usage.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use symplfied::apps::Workload;
use symplfied::check::{memo_key, MemoError, MemoStore, Predicate, SearchLimits};
use symplfied::cluster::{run_cluster_with_memo, CampaignReport, ClusterConfig};
use symplfied::inject::{Campaign, ErrorClass};
use symplfied::machine::ExecLimits;
use symplfied::wire::{
    run_distributed_with, spawn_loopback_workers, CampaignJob, ChaosPlan, DistOptions, WireError,
    DEFAULT_HEARTBEAT_INTERVAL,
};

/// Flags that only mean something to a coordinator with a worker fleet.
const FLEET_FLAGS: [&str; 11] = [
    "--verify-local",
    "--checkpoint",
    "--resume",
    "--heartbeat-interval",
    "--chaos-kill-one",
    "--chaos-abort-after",
    "--split-idle",
    "--expect-split",
    "--expect-join",
    "--client-label",
    "--client-priority",
];

#[derive(Default)]
struct Opts {
    workload: String,
    tasks: Option<usize>,
    quick: bool,
    workers_at: Vec<String>,
    spawn_workers: usize,
    verify_local: bool,
    checkpoint: Option<PathBuf>,
    resume: Option<PathBuf>,
    heartbeat_interval: Option<Duration>,
    chaos_kill_one: bool,
    chaos_abort_after: Option<usize>,
    allow_join: bool,
    join_late: usize,
    split_idle: bool,
    expect_split: bool,
    expect_join: bool,
    client_label: Option<String>,
    client_priority: u64,
    memo_path: Option<PathBuf>,
    expect_memo_warm: bool,
    mutate_program: bool,
    expect_stale_memo: bool,
}

impl Opts {
    fn has_fleet(&self) -> bool {
        !self.workers_at.is_empty() || self.spawn_workers > 0 || self.allow_join
    }
}

/// Why a campaign ended badly: a failed run (exit 1) or a failed gate
/// (exit 2).
enum Failure {
    Run(String),
    Gate(String),
}

/// Parses the value that follows `flag`.
fn value<T: std::str::FromStr>(flag: &str, arg: Option<&String>) -> Result<T, String> {
    let arg = arg.ok_or(format!("{flag} expects a value"))?;
    arg.parse().map_err(|_| format!("bad {flag} `{arg}`"))
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        client_priority: 1,
        ..Opts::default()
    };
    // The last fleet-only flag given, which an in-process run refuses.
    let mut fleet_flag: Option<&str> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        match flag {
            "--workload" => opts.workload = value(flag, it.next())?,
            "--tasks" => opts.tasks = Some(value(flag, it.next())?),
            "--quick" => opts.quick = true,
            "--workers-at" => opts.workers_at.extend(
                value::<String>(flag, it.next())?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_owned),
            ),
            "--spawn-workers" => opts.spawn_workers = value(flag, it.next())?,
            "--verify-local" => opts.verify_local = true,
            "--checkpoint" => opts.checkpoint = Some(value(flag, it.next())?),
            "--resume" => opts.resume = Some(value(flag, it.next())?),
            "--heartbeat-interval" => {
                opts.heartbeat_interval = Some(Duration::from_millis(value(flag, it.next())?));
            }
            "--chaos-kill-one" => opts.chaos_kill_one = true,
            "--chaos-abort-after" => opts.chaos_abort_after = Some(value(flag, it.next())?),
            "--allow-join" => opts.allow_join = true,
            "--join-late" => {
                opts.join_late = value(flag, it.next())?;
                opts.allow_join = true;
            }
            "--split-idle" => opts.split_idle = true,
            "--expect-split" => opts.expect_split = true,
            "--expect-join" => opts.expect_join = true,
            "--client-label" => opts.client_label = Some(value(flag, it.next())?),
            "--client-priority" => opts.client_priority = value(flag, it.next())?,
            "--memo-path" => opts.memo_path = Some(value(flag, it.next())?),
            "--expect-memo-warm" => opts.expect_memo_warm = true,
            "--mutate-program" => opts.mutate_program = true,
            "--expect-stale-memo" => opts.expect_stale_memo = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
        if FLEET_FLAGS.contains(&flag) {
            fleet_flag = Some(flag);
        }
    }
    if opts.workload.is_empty() {
        return Err("campaign needs --workload tcas|replace|spin".into());
    }
    match fleet_flag {
        Some(flag) if !opts.has_fleet() => {
            return Err(format!(
                "{flag} needs a worker fleet (--workers-at, --spawn-workers or --allow-join)"
            ));
        }
        _ => {}
    }
    if opts.chaos_kill_one && opts.spawn_workers < 2 {
        return Err(
            "--chaos-kill-one needs --spawn-workers 2 or more, so a worker survives".into(),
        );
    }
    if opts.expect_join && !opts.allow_join {
        return Err("--expect-join needs --allow-join or --join-late".into());
    }
    if opts.memo_path.is_none() {
        for (set, flag) in [
            (opts.expect_memo_warm, "--expect-memo-warm"),
            (opts.expect_stale_memo, "--expect-stale-memo"),
        ] {
            if set {
                return Err(format!("{flag} needs --memo-path"));
            }
        }
    } else if opts.has_fleet() {
        return Err("--memo-path runs in-process only and cannot drive a worker fleet".into());
    }
    Ok(opts)
}

/// Per-point search limits: the paper's 10 findings per point, and the
/// given step, state and wall caps.
fn limits(max_steps: u64, max_states: usize, max_secs: Option<u64>) -> SearchLimits {
    SearchLimits {
        exec: ExecLimits::with_max_steps(max_steps),
        max_states,
        max_solutions: 10,
        max_time: max_secs.map(Duration::from_secs),
        ..SearchLimits::default()
    }
}

/// The workload, its campaign configuration and the predicate findings
/// are judged by.
fn preset(opts: &Opts) -> Result<(Workload, ClusterConfig, Predicate), String> {
    let name = opts.workload.as_str();
    let unknown = || format!("unknown workload `{name}` (expected tcas, replace or spin)");
    let w = symplfied::apps::resolve_workload(name).ok_or_else(unknown)?;
    let quick = opts.quick;
    let (tasks, search, budget_secs) = match name {
        "tcas" => (
            150,
            limits(w.max_steps, if quick { 50_000 } else { 300_000 }, Some(60)),
            Some(if quick { 10 } else { 120 }),
        ),
        "replace" if quick => (312, limits(6_000, 20_000, Some(5)), Some(10)),
        "replace" => (312, limits(w.max_steps, 120_000, Some(30)), Some(90)),
        "spin" if quick => return Err("spin has no --quick preset".into()),
        // Long per-point searches cut at a deep but schedule-independent
        // state cap: hundreds of milliseconds per shard.
        "spin" => (2, limits(w.max_steps, 250_000, None), None),
        _ => return Err(unknown()),
    };
    let config = ClusterConfig {
        tasks: opts.tasks.unwrap_or(tasks),
        search,
        task_budget: budget_secs.map(Duration::from_secs),
        max_findings_per_task: 10,
        point_workers_hint: (name == "spin").then_some(1),
        ..ClusterConfig::default()
    };
    let predicate = if name == "spin" {
        Predicate::OutputContainsErr
    } else {
        Predicate::WrongOutput {
            expected: symplfied::apps::golden(&w).output_ints(),
        }
    };
    Ok((w, config, predicate))
}

/// The `campaign` subcommand. `Err` is a usage error.
pub(crate) fn run(args: &[String]) -> Result<ExitCode, String> {
    let opts = parse_opts(args)?;
    let (workload, config, predicate) = preset(&opts)?;
    Ok(match execute(&opts, workload, config, &predicate) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Run(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
        Err(Failure::Gate(msg)) => {
            eprintln!("GATE FAILED: {msg}");
            ExitCode::from(2)
        }
    })
}

fn execute(
    opts: &Opts,
    mut w: Workload,
    config: ClusterConfig,
    predicate: &Predicate,
) -> Result<(), Failure> {
    if opts.mutate_program {
        // One edit anywhere must change the memo key. A dead `halt` after
        // the last instruction moves the key and no reachable outcome
        // (appending never shifts an address).
        let mut b = symplfied::asm::ProgramBuilder::new();
        for instr in w.program.instrs() {
            b.push(instr.clone());
        }
        b.halt();
        w.program = b
            .build()
            .map_err(|e| Failure::Run(format!("mutated {} does not build: {e}", w.name)))?;
        println!("mutated {}: appended a dead halt", w.name);
    }
    let golden = symplfied::apps::golden(&w);
    println!(
        "{}: {} instructions, golden output `{}` in {} steps",
        w.name,
        w.program.len(),
        golden.rendered_output(),
        golden.steps()
    );
    let campaign = Campaign::new(&w.program, ErrorClass::RegisterFile);
    println!(
        "register-error campaign: {} injection points, {} tasks\n",
        campaign.len(),
        config.tasks
    );

    let report = if opts.has_fleet() {
        run_on_fleet(&w, &campaign, predicate, config, opts)?
    } else if let Some(path) = &opts.memo_path {
        run_memoized(&w, &campaign, predicate, config, opts, path)?
    } else {
        Some(run_local(&w, &campaign, predicate, &config, None))
    };
    // No report: a chaos abort or an expected stale-store refusal.
    let Some(report) = report else {
        return Ok(());
    };

    println!("{}\n", report.summary());
    match w.name {
        "tcas" => report_tcas(&w, &report),
        "replace" => report_replace(&w, &report),
        _ => {}
    }
    Ok(())
}

/// Runs the campaign in-process against the memo store at `path`.
/// `Ok(None)` is the stale-store refusal `--expect-stale-memo` asks for.
fn run_memoized(
    w: &Workload,
    campaign: &Campaign,
    predicate: &Predicate,
    mut config: ClusterConfig,
    opts: &Opts,
    path: &Path,
) -> Result<Option<CampaignReport>, Failure> {
    let shown = path.display();
    let key = memo_key(&w.program, &w.detectors);
    if opts.expect_stale_memo {
        return match MemoStore::load(path, Some(key)) {
            Err(MemoError::StaleKey { .. }) => {
                println!("stale memo store refused as expected: {shown} keys a different program");
                Ok(None)
            }
            Err(e) => Err(Failure::Gate(format!(
                "expected a stale-key refusal for {shown}, got: {e}"
            ))),
            Ok(_) => Err(Failure::Gate(format!(
                "stale memo store {shown} was accepted"
            ))),
        };
    }
    // The store serves only the deterministic configuration (no task
    // budget); anything else ignores it.
    config.task_budget = None;
    let store = if path.exists() {
        let (store, truncated) = MemoStore::load(path, Some(key))
            .map_err(|e| Failure::Run(format!("cannot use memo store {shown}: {e}")))?;
        if truncated {
            eprintln!("warning: {shown} had a truncated tail; kept the intact prefix");
        }
        println!("memo store loaded: {} entr(ies) from {shown}", store.len());
        store
    } else {
        println!("memo store: starting cold at {shown}");
        MemoStore::new(key)
    };
    let report = run_local(w, campaign, predicate, &config, Some(&store));
    store
        .save(path)
        .map_err(|e| Failure::Run(format!("cannot save memo store {shown}: {e}")))?;
    println!(
        "memo: {} entr(ies) at {shown}; {} hit(s) served {} of {} states; \
         prefix cache saved {} step(s); outcome digest {:032x}",
        store.len(),
        report.memo_hits(),
        report.memo_states_skipped(),
        report.states_explored(),
        report.prefix_steps_saved(),
        report.outcome_digest()
    );
    if opts.expect_memo_warm {
        // Served from the store (hits, at least half the states
        // skipped), with the outcome digest of a memo-off run.
        let off = run_local(w, campaign, predicate, &config, None);
        let hits = report.memo_hits();
        let skipped = report.memo_states_skipped();
        let explored = report.states_explored().max(1);
        let digest_ok = off.outcome_digest() == report.outcome_digest();
        if hits == 0 || skipped * 2 < explored || !digest_ok {
            return Err(Failure::Gate(format!(
                "warm memo expectations not met \
                 (hits={hits}, skipped={skipped}/{explored}, digest match={digest_ok})"
            )));
        }
        println!(
            "warm memo gate passed: {hits} hit(s), {:.0}% of states served, \
             digest matches memo-off",
            100.0 * skipped as f64 / explored as f64
        );
    }
    Ok(Some(report))
}

/// Runs the campaign in-process, served from `memo` when given.
fn run_local(
    w: &Workload,
    campaign: &Campaign,
    predicate: &Predicate,
    config: &ClusterConfig,
    memo: Option<&MemoStore>,
) -> CampaignReport {
    let (program, detectors, input) = (&w.program, &w.detectors, &w.input);
    run_cluster_with_memo(program, detectors, input, campaign, predicate, config, memo)
}

/// Late joiners spawned mid-campaign. Dropping them gives each a grace
/// period to exit on the coordinator's shutdown or hang-up, then kills it.
#[derive(Default)]
struct Joiners(Mutex<Vec<Child>>);

impl Drop for Joiners {
    fn drop(&mut self) {
        let children = self.0.get_mut().unwrap_or_else(PoisonError::into_inner);
        for child in children {
            let deadline = Instant::now() + Duration::from_secs(5);
            while matches!(child.try_wait(), Ok(None)) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(20));
            }
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Runs the campaign as the coordinator of a worker fleet. `Ok(None)` is
/// a `--chaos-abort-after` abort, whose deliverable is the checkpoint.
///
/// Verification, checkpoints, chaos, joins and splits force the
/// deterministic configuration (sequential point searches, no task
/// budget): a time-budgeted or schedule-dependent truncation can differ
/// between runs, and a checkpoint's key must match between the run that
/// writes it and the run that resumes it.
fn run_on_fleet(
    w: &Workload,
    campaign: &Campaign,
    predicate: &Predicate,
    mut config: ClusterConfig,
    opts: &Opts,
) -> Result<Option<CampaignReport>, Failure> {
    let failed = |what: &str, e: &dyn std::fmt::Display| Failure::Run(format!("{what}: {e}"));
    if opts.verify_local
        || opts.checkpoint.is_some()
        || opts.resume.is_some()
        || opts.chaos_kill_one
        || opts.chaos_abort_after.is_some()
        || opts.allow_join
        || opts.split_idle
    {
        config.point_workers_hint = Some(1);
        config.task_budget = None;
    }
    if opts.split_idle {
        // A split is exact only when the per-task finding cap cannot
        // bind; lift it for this run and the verify-local re-run alike.
        config.max_findings_per_task = config
            .max_findings_per_task
            .max(campaign.len().saturating_mul(config.search.max_solutions));
    }

    let exe = std::env::current_exe().map_err(|e| failed("own executable path", &e))?;
    let mut addrs = opts.workers_at.clone();
    let spawned = if opts.spawn_workers > 0 {
        let serve = ["serve", "--listen", "127.0.0.1:0"].map(String::from);
        let spawned = spawn_loopback_workers(&exe, &serve, opts.spawn_workers)
            .map_err(|e| failed("cannot spawn loopback workers", &e))?;
        addrs.extend(spawned.addrs.iter().cloned());
        Some(spawned)
    } else {
        None
    };
    println!(
        "distributed campaign: {} worker(s) at {addrs:?}",
        addrs.len()
    );
    // Only workers we spawned are shut down; a --workers-at fleet keeps
    // serving the next campaign.
    let shutdown_workers = spawned.is_some();

    // The kill leg reaches into the spawned set from the result callback.
    let spawned = Mutex::new(spawned);
    let killed = AtomicBool::new(false);
    let kill_one = |completed: usize| {
        if completed >= 1 && !killed.swap(true, Ordering::SeqCst) {
            let mut guard = spawned.lock().expect("no chaos callback panicked");
            if let Some(workers) = guard.as_mut() {
                match workers.kill_one(0) {
                    Ok(addr) => println!("chaos: SIGKILLed loopback worker at {addr}"),
                    Err(e) => eprintln!("chaos: failed to kill worker: {e}"),
                }
            }
        }
    };

    // The join listener exists before the campaign starts; late joiners
    // are `symplfied serve --join` processes started after the first
    // pooled result, so they genuinely arrive mid-campaign.
    let join_listener = if opts.allow_join {
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| failed("cannot bind the join listener", &e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| failed("join listener address", &e))?
            .to_string();
        println!("elastic: join listener on {addr}");
        Some((listener, addr))
    } else {
        None
    };
    let joiners = Joiners::default();
    let spawn_joiners = || {
        let Some((_, addr)) = &join_listener else {
            return;
        };
        let mut guard = joiners.0.lock().expect("no join callback panicked");
        for _ in 0..opts.join_late {
            match Command::new(&exe).args(["serve", "--join", addr]).spawn() {
                Ok(child) => guard.push(child),
                Err(e) => eprintln!("elastic: cannot spawn a late joiner: {e}"),
            }
        }
        println!(
            "elastic: spawned {} late joiner(s) against {addr}",
            guard.len()
        );
    };

    let job = CampaignJob {
        program: &w.program,
        program_id: w.name,
        input: &w.input,
        campaign,
        predicate,
        config: &config,
    };
    let dist = DistOptions {
        shutdown_workers,
        heartbeat_interval: opts
            .heartbeat_interval
            .unwrap_or(DEFAULT_HEARTBEAT_INTERVAL),
        checkpoint: opts.checkpoint.as_deref(),
        resume: opts.resume.as_deref(),
        chaos: ChaosPlan {
            abort_after_results: opts.chaos_abort_after,
            on_result: opts
                .chaos_kill_one
                .then_some(&kill_one as &(dyn Fn(usize) + Sync)),
            delayed_join: (opts.join_late > 0).then_some((1, &spawn_joiners as &(dyn Fn() + Sync))),
        },
        join_listener: join_listener.as_ref().map(|(listener, _)| listener),
        split_idle: opts.split_idle,
        client_label: Some(
            opts.client_label
                .clone()
                .unwrap_or_else(|| w.name.to_owned()),
        ),
        client_priority: opts.client_priority,
    };
    let report = match run_distributed_with(&job, &addrs, &dist) {
        Ok(report) => report,
        Err(WireError::CoordinatorAborted { completed }) => {
            println!(
                "chaos: coordinator aborted after {completed} completed task(s); \
                 the checkpoint holds them for --resume"
            );
            return Ok(None);
        }
        Err(e) => return Err(failed("distributed campaign failed", &e)),
    };
    drop(joiners);
    if let Some(spawned) = spawned.into_inner().expect("no chaos callback panicked") {
        spawned
            .join()
            .map_err(|e| failed("spawned workers did not exit cleanly", &e))?;
    }
    if opts.expect_split && report.tasks_split == 0 {
        return Err(Failure::Gate(
            "--expect-split was set but no shard was split".into(),
        ));
    }
    if opts.expect_join && report.workers_joined == 0 {
        return Err(Failure::Gate(
            "--expect-join was set but no worker joined mid-campaign".into(),
        ));
    }
    println!(
        "distributed outcome digest: {:#034x}",
        report.outcome_digest()
    );

    if opts.verify_local {
        let local = run_local(w, campaign, predicate, &config, None);
        println!(
            "in-process outcome digest:  {:#034x}",
            local.outcome_digest()
        );
        if local.outcome_digest() != report.outcome_digest() {
            return Err(Failure::Gate(format!(
                "distributed campaign diverged from the in-process run\n\
                 distributed: {}\n in-process: {}",
                report.summary(),
                local.summary()
            )));
        }
        println!("verify-local: distributed report reproduces the in-process run verbatim");
    }
    Ok(Some(report))
}

/// §6.2: tcas's escaping outcomes by printed advisory, and a witness for
/// the catastrophic advisory 2.
fn report_tcas(w: &Workload, report: &CampaignReport) {
    let mut counts = [0usize; 4];
    for f in &report.findings {
        let state = &f.solution.state;
        let bucket = if state.output_contains_err() {
            3
        } else {
            match state.output_ints().as_slice() {
                [2] => 0,
                [0] => 1,
                _ => 2,
            }
        };
        counts[bucket] += 1;
    }
    println!("| Escaping outcome          | Findings |");
    let labels = [
        "advisory 2 (catastrophic)",
        "advisory 0 (unresolved)",
        "out-of-range value",
        "err printed",
    ];
    for (label, n) in labels.iter().zip(counts) {
        println!("| {label:25} | {n:<8} |");
    }

    let catastrophic = report
        .findings
        .iter()
        .find(|f| f.solution.state.output_ints() == [2] && !f.solution.state.output_contains_err());
    if let Some(f) = catastrophic {
        let (label, off) = w
            .program
            .enclosing_label(f.point.breakpoint)
            .unwrap_or(("?", 0));
        println!(
            "\nCatastrophic witness: {} (inside {label}+{off})\n  status: {}\n  trace: {}",
            f.point,
            f.solution.state.status(),
            f.solution.trace_summary(16)
        );
    } else {
        println!("\nNo catastrophic (advisory-2) witness found under these budgets.");
    }
}

/// §6.4: replace's task statistics beside the paper's, and an example of
/// the dodash scenario, where an erroneous pattern leaves the line
/// unsubstituted.
fn report_replace(w: &Workload, report: &CampaignReport) {
    println!("| Statistic                    | This run | Paper (§6.4) |");
    for (name, ours, paper) in [
        ("search tasks", report.tasks.len(), 312),
        ("completed in budget", report.tasks_completed(), 202),
        (
            "completed, benign/crash only",
            report.tasks_without_findings(),
            148,
        ),
        (
            "completed, incorrect outcome",
            report.tasks_with_findings(),
            54,
        ),
    ] {
        println!("| {name:28} | {ours:<8} | {paper:<12} |");
    }

    // The input line is the last length-prefixed block of the input.
    let input = &w.input;
    let pat_len = input[0] as usize;
    let sub_len = input[1 + pat_len] as usize;
    let original = &input[2 + pat_len + sub_len + 1..];
    let decode = symplfied::apps::replace_input::decode;
    match report
        .findings
        .iter()
        .find(|f| f.solution.state.output_ints() == original)
    {
        Some(f) => {
            let (label, off) = w
                .program
                .enclosing_label(f.point.breakpoint)
                .unwrap_or(("?", 0));
            println!(
                "\nExample scenario (paper §6.4): {} inside {label}+{off} makes the \
                 pattern erroneous; the program returns the original string \
                 `{}` without substitution.",
                f.point,
                decode(original)
            );
        }
        None => println!(
            "\n(no original-string-returned finding under these budgets; \
             {} other incorrect outcomes found)",
            report.findings.len()
        ),
    }
}
