//! `symplfied` — command-line front-end for the framework.
//!
//! ```text
//! symplfied run    <prog.sasm> [--mips] [--input 1,2,3] [--detectors dets.txt]
//! symplfied disasm <prog.sasm> [--mips]
//! symplfied verify <prog.sasm> [--mips] [--input …] [--detectors dets.txt]
//!                  [--class register|memory|pc|fetch] [--max-steps N]
//!                  [--max-solutions N]
//! symplfied ssim   <prog.sasm> [--mips] [--input …] [--random N] [--seed N]
//! symplfied serve  [--listen HOST:PORT | --join HOST:PORT]
//!                  [--max-clients N] [--status-interval SECS]
//! symplfied campaign --workload tcas|replace|spin [--tasks N] [--quick] …
//! symplfied repro
//! ```

use std::process::ExitCode;

use symplfied::check::{FrontierPolicy, PriorityHeuristic, SearchLimits};
use symplfied::inject::ComputationError;
use symplfied::machine::ExecLimits;
use symplfied::prelude::*;
use symplfied::ssim;

mod campaign;
mod repro;

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  symplfied run    <prog> [--mips] [--input 1,2,3] [--detectors FILE] [--max-steps N]
  symplfied disasm <prog> [--mips]
  symplfied verify <prog> [--mips] [--input 1,2,3] [--detectors FILE]
                   [--class register|memory|pc|fetch] [--max-steps N] [--max-solutions N]
                   [--frontier bfs|dfs|priority-constraints|priority-depth|priority-output|iddfs]
                   [--max-frontier-bytes N] [--memo-path FILE]
  symplfied ssim   <prog> [--mips] [--input 1,2,3] [--random N] [--seed N]
  symplfied serve  [--listen HOST:PORT | --join HOST:PORT]
                   [--max-clients N] [--status-interval SECS]
  symplfied campaign --workload tcas|replace|spin [--tasks N] [--quick]
                   [--workers-at HOST:PORT,...] [--spawn-workers N] [--allow-join]
                   [--join-late N] [--verify-local] [--checkpoint PATH] [--resume PATH]
                   [--heartbeat-interval MS] [--chaos-kill-one] [--chaos-abort-after N]
                   [--split-idle] [--expect-split] [--expect-join] [--client-label NAME]
                   [--client-priority N] [--memo-path FILE] [--expect-memo-warm]
                   [--mutate-program] [--expect-stale-memo]
  symplfied repro

--frontier picks the search's frontier policy (exhausted searches agree
under every policy; see each policy's determinism contract in the docs);
--max-frontier-bytes bounds the in-RAM frontier for bfs/dfs, spilling
overflow to disk so exhaustive searches larger than RAM still complete.

--memo-path persists the cross-campaign memo store: point searches
recorded on one verify are served without re-expansion on the next,
making repeated verification incremental. The store is keyed to the
exact program + detectors — after an edit the stale file is refused
(delete it to start fresh).

serve starts a distributed-campaign worker: it listens for campaign
coordinators (symplfied campaign --workers-at), announces
its bound address as `sympl-wire listening on HOST:PORT`, resolves
tasks' program ids against the bundled workloads, and exits when a
coordinator sends a shutdown frame and the last session drains.
--listen defaults to 127.0.0.1:0 (loopback, OS-assigned port). The
worker is a multi-tenant campaign service: up to --max-clients
(default 16) coordinators run concurrently, their tasks scheduled by
priority-weighted round-robin; a full service refuses new clients with
a typed error frame. --status-interval SECS logs a per-client
accounting line (queued/completed per client, fairness ratio) at that
cadence. With --join the direction flips: the worker dials a *running*
campaign's join listener (the coordinator's --allow-join port),
registers, and serves tasks from the live queue until the coordinator
shuts it down; --listen, --max-clients and --status-interval do not
apply to it and are refused.

campaign runs the paper's register-error campaign on a bundled workload
(tcas: §6.2, replace: §6.4, spin: a slow stressor for fleet events),
in-process or, with --workers-at/--spawn-workers/--allow-join, as the
coordinator of a fleet of serve workers. --verify-local re-runs it
in-process and exits 2 unless both outcome digests match; the other
--expect-* flags are gates that exit 2 the same way. --memo-path runs
in-process against a memo store (see above). See docs/OPERATIONS.md for
the full operator manual.

repro prints the paper's Table 1, Table 2 (base and extended), Table 3
and Figures 2 & 3, regenerated from the bundled workloads. It takes no
arguments; see docs/REPRODUCTION.md for how each compares with the paper.";

struct Opts {
    program_path: String,
    mips: bool,
    input: Vec<i64>,
    detectors: DetectorSet,
    class: ErrorClass,
    max_steps: u64,
    max_solutions: usize,
    policy: FrontierPolicy,
    max_frontier_bytes: Option<usize>,
    memo_path: Option<String>,
    random: usize,
    seed: u64,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        program_path: String::new(),
        mips: false,
        input: Vec::new(),
        detectors: DetectorSet::new(),
        class: ErrorClass::RegisterFile,
        max_steps: 100_000,
        max_solutions: 10,
        policy: FrontierPolicy::default(),
        max_frontier_bytes: None,
        memo_path: None,
        random: 3,
        seed: 0x5151_F1ED,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{name} expects a value"))
        };
        match arg.as_str() {
            "--mips" => opts.mips = true,
            "--input" => {
                opts.input = value("--input")?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.trim().parse().map_err(|_| format!("bad input `{s}`")))
                    .collect::<Result<_, _>>()?;
            }
            "--detectors" => {
                let path = value("--detectors")?;
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                opts.detectors = DetectorSet::parse(&text).map_err(|e| e.to_string())?;
            }
            "--class" => {
                opts.class = match value("--class")?.as_str() {
                    "register" => ErrorClass::RegisterFile,
                    "memory" => ErrorClass::Memory,
                    "pc" => ErrorClass::ProgramCounter,
                    "fetch" => ErrorClass::Computation(ComputationError::Fetch),
                    other => return Err(format!("unknown error class `{other}`")),
                };
            }
            "--max-steps" => {
                opts.max_steps = value("--max-steps")?
                    .parse()
                    .map_err(|_| "bad --max-steps")?;
            }
            "--max-solutions" => {
                opts.max_solutions = value("--max-solutions")?
                    .parse()
                    .map_err(|_| "bad --max-solutions")?;
            }
            "--frontier" => {
                opts.policy = match value("--frontier")?.as_str() {
                    "bfs" => FrontierPolicy::Bfs,
                    "dfs" => FrontierPolicy::Dfs,
                    "priority-constraints" => {
                        FrontierPolicy::Priority(PriorityHeuristic::ConstraintMapSize)
                    }
                    "priority-depth" => FrontierPolicy::Priority(PriorityHeuristic::Depth),
                    "priority-output" => FrontierPolicy::Priority(PriorityHeuristic::OutputLen),
                    "iddfs" => FrontierPolicy::iterative_deepening(),
                    other => return Err(format!("unknown frontier policy `{other}`")),
                };
            }
            "--max-frontier-bytes" => {
                opts.max_frontier_bytes = Some(
                    value("--max-frontier-bytes")?
                        .parse()
                        .map_err(|_| "bad --max-frontier-bytes")?,
                );
            }
            "--memo-path" => {
                opts.memo_path = Some(value("--memo-path")?.clone());
            }
            "--random" => {
                opts.random = value("--random")?.parse().map_err(|_| "bad --random")?;
            }
            "--seed" => {
                opts.seed = value("--seed")?.parse().map_err(|_| "bad --seed")?;
            }
            other if opts.program_path.is_empty() && !other.starts_with('-') => {
                opts.program_path = other.to_owned();
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if opts.program_path.is_empty() {
        return Err("missing program file".into());
    }
    Ok(opts)
}

fn load_program(opts: &Opts) -> Result<Program, String> {
    let source = std::fs::read_to_string(&opts.program_path)
        .map_err(|e| format!("cannot read {}: {e}", opts.program_path))?;
    if opts.mips {
        symplfied::asm::mips::translate_mips(&source).map_err(|e| e.to_string())
    } else {
        parse_program(&source).map_err(|e| e.to_string())
    }
}

/// Resolves a wire task's program id against the bundled workloads.
fn resolve_workload(id: &str) -> Option<(Program, DetectorSet)> {
    symplfied::apps::resolve_workload(id).map(|w| (w.program, w.detectors))
}

/// The `serve` subcommand: a distributed-campaign worker agent.
fn serve(args: &[String]) -> Result<(), String> {
    let mut listen = String::from("127.0.0.1:0");
    let mut join: Option<String> = None;
    let mut opts = symplfied::wire::ServeOptions::default();
    // The last listen-mode flag given, which `--join` refuses.
    let mut listen_flag: Option<&str> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--listen" => {
                listen_flag = Some("--listen");
                listen = it.next().ok_or("--listen expects a value")?.clone();
            }
            "--join" => {
                join = Some(it.next().ok_or("--join expects a value")?.clone());
            }
            "--max-clients" => {
                listen_flag = Some("--max-clients");
                opts.max_clients = it
                    .next()
                    .ok_or("--max-clients expects a value")?
                    .parse()
                    .map_err(|_| "bad --max-clients")?;
                if opts.max_clients == 0 {
                    return Err("--max-clients must be at least 1".into());
                }
            }
            "--status-interval" => {
                listen_flag = Some("--status-interval");
                let secs: u64 = it
                    .next()
                    .ok_or("--status-interval expects a value")?
                    .parse()
                    .map_err(|_| "bad --status-interval")?;
                if secs == 0 {
                    return Err("--status-interval must be at least 1 second".into());
                }
                opts.status_interval = Some(std::time::Duration::from_secs(secs));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(addr) = join {
        if let Some(flag) = listen_flag {
            return Err(format!(
                "--join cannot be combined with {flag}: a joined worker serves one \
                 coordinator and does not listen"
            ));
        }
        // Elastic membership: dial a *running* campaign's join listener
        // and serve tasks until the coordinator hangs up.
        let label = format!("joiner-pid{}", std::process::id());
        return symplfied::wire::join_coordinator(&addr, &label, &resolve_workload)
            .map_err(|e| e.to_string());
    }
    let server = symplfied::wire::WorkerServer::bind(&listen)
        .map_err(|e| format!("cannot bind {listen}: {e}"))?;
    server.announce().map_err(|e| e.to_string())?;
    let stats = server
        .serve_with(&resolve_workload, &opts)
        .map_err(|e| e.to_string())?;
    eprintln!(
        "sympl-wire service: drained after serving {} client(s)",
        stats.clients.len() + stats.retired_clients
    );
    Ok(())
}

fn run(args: Vec<String>) -> Result<ExitCode, String> {
    let Some((command, rest)) = args.split_first() else {
        return Err("missing command".into());
    };
    match command.as_str() {
        "serve" => return serve(rest).map(|()| ExitCode::SUCCESS),
        "campaign" => return campaign::run(rest),
        "repro" => return repro::run(rest).map(|()| ExitCode::SUCCESS),
        _ => {}
    }
    let opts = parse_opts(rest)?;
    let program = load_program(&opts)?;

    let result = match command.as_str() {
        "run" => {
            let mut state = MachineState::with_input(opts.input.clone());
            run_concrete(
                &mut state,
                &program,
                &opts.detectors,
                &ExecLimits::with_max_steps(opts.max_steps),
            )
            .map_err(|e| e.to_string())?;
            println!("status: {}", state.status());
            println!("output: {}", state.rendered_output());
            println!("steps:  {}", state.steps());
            Ok(())
        }
        "disasm" => {
            print!("{}", program.listing());
            Ok(())
        }
        "verify" => {
            let mut framework = Framework::new(program)
                .with_detectors(opts.detectors.clone())
                .with_input(opts.input.clone())
                .with_limits(SearchLimits {
                    exec: ExecLimits::with_max_steps(opts.max_steps),
                    max_solutions: opts.max_solutions,
                    policy: opts.policy,
                    max_frontier_bytes: opts.max_frontier_bytes,
                    ..SearchLimits::default()
                });
            // Load (or create) the cross-campaign memo store. A file whose
            // key does not match this exact program + detector set is
            // refused — a stale store must never be probed.
            let store = match &opts.memo_path {
                Some(path) => {
                    let key =
                        symplfied::check::memo_key(framework.program(), framework.detectors());
                    let file = std::path::Path::new(path);
                    let store = if file.exists() {
                        let (store, truncated) = symplfied::check::MemoStore::load(file, Some(key))
                            .map_err(|e| format!("cannot use memo store {path}: {e}"))?;
                        if truncated {
                            eprintln!(
                                "warning: memo store {path} had a truncated tail; \
                                 kept the intact prefix"
                            );
                        }
                        store
                    } else {
                        symplfied::check::MemoStore::new(key)
                    };
                    Some(std::sync::Arc::new(store))
                }
                None => None,
            };
            if let Some(store) = &store {
                framework = framework.with_memo(std::sync::Arc::clone(store));
            }
            let verdict = framework.enumerate_undetected(opts.class);
            println!("{}", verdict.summary());
            for f in &verdict.findings {
                println!(
                    "  {} -> {} `{}`",
                    f.point,
                    f.solution.state.status(),
                    f.solution.state.rendered_output()
                );
                println!("      trace: {}", f.solution.trace_summary(12));
            }
            if let (Some(path), Some(store)) = (&opts.memo_path, &store) {
                store
                    .save(std::path::Path::new(path))
                    .map_err(|e| format!("cannot save memo store {path}: {e}"))?;
                println!(
                    "memo store: {} entr(ies) at {path} ({} served this run)",
                    store.len(),
                    store.hits()
                );
            }
            Ok(())
        }
        "ssim" => {
            let report = ssim::run_campaign(
                &program,
                &opts.detectors,
                &opts.input,
                &CampaignConfig {
                    seed: opts.seed,
                    random_per_point: opts.random,
                    ..CampaignConfig::default()
                },
                &ExecLimits::with_max_steps(opts.max_steps),
            );
            println!(
                "{} runs ({} not activated)",
                report.total_runs(),
                report.not_activated
            );
            for (outcome, n) in &report.counts {
                println!("  {n:>6}  {outcome}");
            }
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    result.map(|()| ExitCode::SUCCESS)
}
