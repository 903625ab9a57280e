//! Chaos acceptance suite: real `symplfied serve` worker *processes*
//! under injected faults. Four scenarios, all gated on reproducing the
//! in-process `CampaignReport::outcome_digest` verbatim:
//!
//! 1. **Kill a worker mid-campaign** — SIGKILL one of three worker
//!    processes after the first pooled result; the survivors absorb its
//!    re-queued work and the campaign finishes degraded but correct.
//! 2. **Kill the coordinator, then resume** — a checkpointing
//!    coordinator aborts mid-campaign (the deterministic stand-in for a
//!    coordinator crash); a fresh coordinator resumes from the
//!    checkpoint, re-running only the missing shards, and merges to the
//!    identical digest.
//! 3. **Elastic membership under fire** — SIGKILL a worker after the
//!    first result while two fresh `serve --join` processes enter the
//!    running campaign through its join listener, with idle-worker
//!    shard splitting armed.
//! 4. **Resume under a different fleet** — the checkpoint written by
//!    one fleet is resumed by an entirely fresh, larger fleet (the
//!    original processes are dead); the campaign key is fleet-blind, so
//!    the merge still lands on the in-process digest.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use symplfied::check::{Predicate, SearchLimits};
use symplfied::cluster::{run_cluster, ClusterConfig};
use symplfied::inject::{Campaign, ErrorClass};
use symplfied::machine::ExecLimits;
use symplfied::wire::{
    run_distributed_with, spawn_loopback_workers, CampaignJob, ChaosPlan, DistOptions, WireError,
};

/// The deterministic campaign configuration: sequential point searches
/// (`point_workers_hint = Some(1)`) and no wall-clock budgets, so even
/// truncated searches explore a schedule-independent prefix and every
/// run must agree bit-for-bit on outcomes.
fn deterministic_config(max_steps: u64, tasks: usize) -> ClusterConfig {
    ClusterConfig {
        workers: 2,
        tasks,
        search: SearchLimits {
            exec: ExecLimits::with_max_steps(max_steps),
            max_states: 20_000,
            ..SearchLimits::default()
        },
        task_budget: None,
        max_findings_per_task: 10,
        point_workers_hint: Some(1),
    }
}

fn serve_args() -> Vec<String> {
    ["serve", "--listen", "127.0.0.1:0"]
        .map(String::from)
        .to_vec()
}

#[test]
fn sigkilled_worker_mid_campaign_still_reproduces_the_in_process_digest() {
    let w = symplfied::apps::tcas();
    let golden = symplfied::apps::golden(&w).output_ints();
    let mut campaign = Campaign::new(&w.program, ErrorClass::RegisterFile);
    campaign.points.truncate(48);
    let predicate = Predicate::WrongOutput { expected: golden };
    // One point per task: when the kill lands (a millisecond or two after
    // the first of 48 sub-millisecond tasks) the queue is still dozens of
    // tasks long, so the victim's connection is certain to be handed —
    // or already holds — a task it can no longer answer.
    let config = deterministic_config(w.max_steps, campaign.len());

    let local = run_cluster(
        &w.program,
        &w.detectors,
        &w.input,
        &campaign,
        &predicate,
        &config,
    );

    let exe = Path::new(env!("CARGO_BIN_EXE_symplfied"));
    let workers = spawn_loopback_workers(exe, &serve_args(), 3).expect("spawn 3 worker processes");
    let addrs = workers.addrs.clone();

    let job = CampaignJob {
        program: &w.program,
        program_id: "tcas",
        input: &w.input,
        campaign: &campaign,
        predicate: &predicate,
        config: &config,
    };
    // SIGKILL the first worker process once the first result lands —
    // mid-campaign, with most of the queue still to come.
    let workers = Mutex::new(workers);
    let killed = AtomicBool::new(false);
    let kill_one = |completed: usize| {
        if completed >= 1 && !killed.swap(true, Ordering::SeqCst) {
            workers
                .lock()
                .expect("workers lock")
                .kill_one(0)
                .expect("SIGKILL a worker process");
        }
    };
    let opts = DistOptions {
        shutdown_workers: true,
        chaos: ChaosPlan {
            on_result: Some(&kill_one),
            ..ChaosPlan::default()
        },
        ..DistOptions::default()
    };
    let distributed = run_distributed_with(&job, &addrs, &opts).expect("degraded campaign");
    assert!(killed.load(Ordering::SeqCst), "the chaos kill must fire");
    workers
        .into_inner()
        .expect("workers lock")
        .join()
        .expect("surviving workers exit cleanly after shutdown");

    assert_eq!(
        distributed.outcome_digest(),
        local.outcome_digest(),
        "a campaign that lost a worker to SIGKILL must still reproduce \
         the in-process outcome digest"
    );
    assert_eq!(distributed.tasks.len(), local.tasks.len());
    assert_eq!(distributed.findings, local.findings);
    assert!(
        distributed.degraded,
        "losing a worker must be reported as degradation"
    );
    assert!(distributed.workers_lost >= 1);
}

#[test]
fn killed_coordinator_resumes_from_checkpoint_to_the_in_process_digest() {
    let w = symplfied::apps::tcas();
    let golden = symplfied::apps::golden(&w).output_ints();
    let mut campaign = Campaign::new(&w.program, ErrorClass::RegisterFile);
    campaign.points.truncate(48);
    let predicate = Predicate::WrongOutput { expected: golden };
    let config = deterministic_config(w.max_steps, 6);

    let local = run_cluster(
        &w.program,
        &w.detectors,
        &w.input,
        &campaign,
        &predicate,
        &config,
    );

    let exe = Path::new(env!("CARGO_BIN_EXE_symplfied"));
    let workers = spawn_loopback_workers(exe, &serve_args(), 2).expect("spawn 2 worker processes");
    let addrs = workers.addrs.clone();
    let job = CampaignJob {
        program: &w.program,
        program_id: "tcas",
        input: &w.input,
        campaign: &campaign,
        predicate: &predicate,
        config: &config,
    };
    let ck = std::env::temp_dir().join(format!(
        "symplfied-chaos-resume-{}.checkpoint",
        std::process::id()
    ));

    // Leg 1: the checkpointing coordinator "crashes" after two results.
    // The worker processes survive (no shutdown frame is sent on abort).
    let leg1 = DistOptions {
        checkpoint: Some(&ck),
        chaos: ChaosPlan {
            abort_after_results: Some(2),
            ..ChaosPlan::default()
        },
        ..DistOptions::default()
    };
    let err = run_distributed_with(&job, &addrs, &leg1).expect_err("the abort leg must fail");
    assert!(
        matches!(err, WireError::CoordinatorAborted { completed } if completed >= 2),
        "{err}"
    );

    // Leg 2: a fresh coordinator resumes the same worker processes from
    // the checkpoint — only the missing shards are re-run.
    let leg2 = DistOptions {
        shutdown_workers: true,
        resume: Some(&ck),
        ..DistOptions::default()
    };
    let resumed = run_distributed_with(&job, &addrs, &leg2).expect("resumed campaign");
    workers.join().expect("workers exit cleanly after shutdown");
    let _ = std::fs::remove_file(&ck);

    assert!(
        resumed.resumed_tasks >= 2,
        "the checkpointed shards must be seeded, not re-run"
    );
    assert!(
        resumed.resumed_tasks < local.tasks.len(),
        "the missing shards must actually be re-run"
    );
    assert_eq!(
        resumed.outcome_digest(),
        local.outcome_digest(),
        "checkpointed + re-run shards must merge to the uninterrupted \
         in-process outcome digest"
    );
    assert_eq!(resumed.tasks.len(), local.tasks.len());
    assert_eq!(resumed.findings, local.findings);
}

#[test]
fn elastic_campaign_with_kill_late_joins_and_splitting_reproduces_the_digest() {
    // The slow `spin` stressor, as in `just elastic-demo`: the joiners
    // are processes that have to start, connect and register while work
    // remains, and a tcas campaign is over in a few milliseconds. The
    // state cap is sized per build profile so each of the nine points
    // runs for 50+ ms — the two shards still open after the first result
    // outlast a process start many times over.
    let w = symplfied::apps::spin();
    let golden = symplfied::apps::golden(&w).output_ints();
    let campaign = Campaign::new(&w.program, ErrorClass::RegisterFile);
    let predicate = Predicate::WrongOutput { expected: golden };
    let mut config = deterministic_config(w.max_steps, 3);
    config.search.max_states = if cfg!(debug_assertions) {
        20_000
    } else {
        250_000
    };
    // Splitting preserves exactness only when the per-task finding cap
    // cannot bind; lift it so the split gate opens (both runs share the
    // config, so the comparison is still like-for-like).
    config.max_findings_per_task = campaign.len() * config.search.max_solutions;

    let local = run_cluster(
        &w.program,
        &w.detectors,
        &w.input,
        &campaign,
        &predicate,
        &config,
    );

    let exe = Path::new(env!("CARGO_BIN_EXE_symplfied"));
    let workers = spawn_loopback_workers(exe, &serve_args(), 2).expect("spawn 2 worker processes");
    let addrs = workers.addrs.clone();
    let join_listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind a join listener");
    let join_addr = join_listener.local_addr().expect("join listener address");

    let job = CampaignJob {
        program: &w.program,
        program_id: "spin",
        input: &w.input,
        campaign: &campaign,
        predicate: &predicate,
        config: &config,
    };

    // After the first pooled result: SIGKILL one of the original workers
    // and send two fresh `serve --join` processes into the breach.
    let workers = Mutex::new(workers);
    let killed = AtomicBool::new(false);
    let kill_one = |completed: usize| {
        if completed >= 1 && !killed.swap(true, Ordering::SeqCst) {
            workers
                .lock()
                .expect("workers lock")
                .kill_one(0)
                .expect("SIGKILL a worker process");
        }
    };
    let joiners: Mutex<Vec<std::process::Child>> = Mutex::new(Vec::new());
    let spawn_joiners = || {
        let mut guard = joiners.lock().expect("joiners lock");
        for _ in 0..2 {
            let child = std::process::Command::new(exe)
                .args(["serve", "--join", &join_addr.to_string()])
                .spawn()
                .expect("spawn a late-joining worker process");
            guard.push(child);
        }
    };
    let opts = DistOptions {
        shutdown_workers: true,
        join_listener: Some(&join_listener),
        split_idle: true,
        chaos: ChaosPlan {
            on_result: Some(&kill_one),
            delayed_join: Some((1, &spawn_joiners)),
            ..ChaosPlan::default()
        },
        ..DistOptions::default()
    };
    let distributed = run_distributed_with(&job, &addrs, &opts).expect("elastic campaign");
    assert!(killed.load(Ordering::SeqCst), "the chaos kill must fire");
    workers
        .into_inner()
        .expect("workers lock")
        .join()
        .expect("surviving pre-listed workers exit cleanly");
    // Joiners exit on the coordinator's shutdown frame (or its hang-up);
    // give them a grace period, then insist.
    for mut child in joiners.into_inner().expect("joiners lock") {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            match child.try_wait().expect("poll a joiner process") {
                Some(status) => {
                    assert!(status.success(), "joiner exited with {status}");
                    break;
                }
                None if std::time::Instant::now() < deadline => {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                None => {
                    let _ = child.kill();
                    let _ = child.wait();
                    panic!("a late joiner did not exit after the campaign");
                }
            }
        }
    }

    assert_eq!(
        distributed.outcome_digest(),
        local.outcome_digest(),
        "a campaign that lost a worker, admitted two late joiners, and \
         may have split shards must still reproduce the in-process digest"
    );
    assert_eq!(distributed.tasks.len(), local.tasks.len());
    assert_eq!(distributed.findings, local.findings);
    assert!(
        distributed.workers_joined >= 1,
        "at least one late joiner must have been admitted mid-campaign \
         (joined: {})",
        distributed.workers_joined
    );
    assert!(
        distributed.degraded,
        "the SIGKILL must register as degradation"
    );
}

#[test]
fn checkpoint_written_by_one_fleet_resumes_under_a_different_fleet() {
    let w = symplfied::apps::tcas();
    let golden = symplfied::apps::golden(&w).output_ints();
    let mut campaign = Campaign::new(&w.program, ErrorClass::RegisterFile);
    campaign.points.truncate(48);
    let predicate = Predicate::WrongOutput { expected: golden };
    let config = deterministic_config(w.max_steps, 6);

    let local = run_cluster(
        &w.program,
        &w.detectors,
        &w.input,
        &campaign,
        &predicate,
        &config,
    );

    let exe = Path::new(env!("CARGO_BIN_EXE_symplfied"));
    let job = CampaignJob {
        program: &w.program,
        program_id: "tcas",
        input: &w.input,
        campaign: &campaign,
        predicate: &predicate,
        config: &config,
    };
    let ck = std::env::temp_dir().join(format!(
        "symplfied-elastic-refleet-{}.checkpoint",
        std::process::id()
    ));

    // Leg 1: fleet A (two workers) checkpoints, then the coordinator
    // aborts. Fleet A is then destroyed entirely — dropping the handle
    // SIGKILLs the processes — so nothing of the original fleet can
    // leak into the resume.
    {
        let fleet_a =
            spawn_loopback_workers(exe, &serve_args(), 2).expect("spawn fleet A (2 workers)");
        let leg1 = DistOptions {
            checkpoint: Some(&ck),
            chaos: ChaosPlan {
                abort_after_results: Some(2),
                ..ChaosPlan::default()
            },
            ..DistOptions::default()
        };
        let err =
            run_distributed_with(&job, &fleet_a.addrs, &leg1).expect_err("the abort leg must fail");
        assert!(
            matches!(err, WireError::CoordinatorAborted { completed } if completed >= 2),
            "{err}"
        );
    }

    // Leg 2: fleet B — three *fresh* workers on different ports — picks
    // the checkpoint up. The campaign key is a pure function of the job,
    // never of the fleet, so the seeded shards are accepted verbatim.
    let fleet_b = spawn_loopback_workers(exe, &serve_args(), 3).expect("spawn fleet B (3 workers)");
    let leg2 = DistOptions {
        shutdown_workers: true,
        resume: Some(&ck),
        ..DistOptions::default()
    };
    let resumed = run_distributed_with(&job, &fleet_b.addrs, &leg2).expect("resumed campaign");
    fleet_b
        .join()
        .expect("fleet B exits cleanly after shutdown");
    let _ = std::fs::remove_file(&ck);

    assert!(
        resumed.resumed_tasks >= 2,
        "fleet B must seed the shards fleet A completed, not re-run them"
    );
    assert_eq!(
        resumed.outcome_digest(),
        local.outcome_digest(),
        "a checkpoint written under one fleet must resume under a \
         different fleet to the identical in-process digest"
    );
    assert_eq!(resumed.tasks.len(), local.tasks.len());
    assert_eq!(resumed.findings, local.findings);
}
