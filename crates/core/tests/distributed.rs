//! End-to-end distributed campaign: a loopback coordinator driving two
//! real `symplfied serve` worker *processes* must reproduce the
//! in-process cluster's `CampaignReport` verbatim — the acceptance
//! gate the `distributed-campaign` CI job runs.

use std::path::Path;

use symplfied::check::{Predicate, SearchLimits};
use symplfied::cluster::{run_cluster, ClusterConfig};
use symplfied::inject::{Campaign, ErrorClass};
use symplfied::machine::ExecLimits;
use symplfied::wire::{run_distributed, spawn_loopback_workers, CampaignJob};

/// The deterministic campaign configuration: sequential point searches
/// (`point_workers_hint = Some(1)`) and no wall-clock budgets, so even
/// truncated searches explore a schedule-independent prefix and the two
/// runs must agree bit-for-bit on outcomes.
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

#[test]
fn two_worker_processes_reproduce_the_in_process_tcas_campaign() {
    let w = symplfied::apps::tcas();
    let golden = symplfied::apps::golden(&w).output_ints();
    let mut campaign = Campaign::new(&w.program, ErrorClass::RegisterFile);
    // A prefix of the register campaign keeps the test to seconds while
    // still sweeping real injection points through real processes.
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
    let serve_args: Vec<String> = ["serve", "--listen", "127.0.0.1:0"]
        .map(String::from)
        .to_vec();
    let workers = spawn_loopback_workers(exe, &serve_args, 2).expect("spawn 2 worker processes");
    let addrs = workers.addrs.clone();

    let job = CampaignJob {
        program: &w.program,
        program_id: "tcas",
        input: &w.input,
        campaign: &campaign,
        predicate: &predicate,
        config: &config,
    };
    let distributed = run_distributed(&job, &addrs, true).expect("distributed campaign");
    workers.join().expect("workers exit cleanly after shutdown");

    // The determinism contract: outcome counts and solution sets verbatim.
    assert_eq!(
        distributed.findings, local.findings,
        "findings must match verbatim"
    );
    assert_eq!(distributed.tasks.len(), local.tasks.len());
    for (d, l) in distributed.tasks.iter().zip(&local.tasks) {
        assert_eq!(d.id, l.id);
        assert_eq!(d.points_examined, l.points_examined);
        assert_eq!(d.points_total, l.points_total);
        assert_eq!(d.activated, l.activated);
        assert_eq!(d.findings, l.findings);
        assert_eq!(d.completed, l.completed);
        assert_eq!(d.states_explored, l.states_explored);
        assert_eq!(d.point_workers, l.point_workers);
        assert_eq!(d.spilled_states, l.spilled_states);
    }
    assert_eq!(
        distributed.outcome_digest(),
        local.outcome_digest(),
        "distributed campaign must reproduce the in-process outcome digest"
    );
    // Sanity: the campaign actually did work.
    assert!(distributed.states_explored() > 0);
    assert!(!distributed.tasks.is_empty());
}
