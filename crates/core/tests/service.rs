//! Multi-tenant campaign-service acceptance: two *concurrent* campaigns
//! (tcas + replace) driven by separate coordinators through one shared
//! fleet of real `symplfied serve` worker processes must each reproduce
//! their in-process `CampaignReport` verbatim — the tenant-blindness half
//! of the determinism contract. CI's "Service acceptance" step runs this
//! test, and so does `just service-demo`.

use std::path::Path;

use symplfied::check::{Predicate, SearchLimits};
use symplfied::cluster::{run_cluster, CampaignReport, ClusterConfig};
use symplfied::inject::{Campaign, ErrorClass};
use symplfied::machine::ExecLimits;
use symplfied::wire::{
    run_distributed_with, shutdown_worker, spawn_loopback_workers, CampaignJob, DistOptions,
};

/// The deterministic campaign configuration: sequential point searches
/// (`point_workers_hint = Some(1)`) and no wall-clock budgets, so the
/// outcome is schedule-independent no matter how the service interleaves
/// the two tenants' tasks.
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

fn assert_verbatim(distributed: &CampaignReport, local: &CampaignReport, which: &str) {
    assert_eq!(
        distributed.findings, local.findings,
        "{which}: findings must match verbatim"
    );
    assert_eq!(distributed.tasks.len(), local.tasks.len(), "{which}");
    assert_eq!(
        distributed.outcome_digest(),
        local.outcome_digest(),
        "{which}: the shared-service campaign must reproduce the in-process outcome digest"
    );
    assert!(distributed.states_explored() > 0, "{which} did real work");
}

#[test]
fn two_concurrent_campaigns_share_a_fleet_and_reproduce_their_digests() {
    // Tenant A: a truncated tcas register campaign.
    let tcas = symplfied::apps::tcas();
    let tcas_golden = symplfied::apps::golden(&tcas).output_ints();
    let mut tcas_campaign = Campaign::new(&tcas.program, ErrorClass::RegisterFile);
    tcas_campaign.points.truncate(48);
    let tcas_predicate = Predicate::WrongOutput {
        expected: tcas_golden,
    };
    let tcas_config = deterministic_config(tcas.max_steps, 6);

    // Tenant B: a truncated replace register campaign at double priority.
    let replace = symplfied::apps::replace();
    let replace_golden = symplfied::apps::golden(&replace).output_ints();
    let mut replace_campaign = Campaign::new(&replace.program, ErrorClass::RegisterFile);
    replace_campaign.points.truncate(24);
    let replace_predicate = Predicate::WrongOutput {
        expected: replace_golden,
    };
    let replace_config = deterministic_config(6_000, 4);

    let tcas_local = run_cluster(
        &tcas.program,
        &tcas.detectors,
        &tcas.input,
        &tcas_campaign,
        &tcas_predicate,
        &tcas_config,
    );
    let replace_local = run_cluster(
        &replace.program,
        &replace.detectors,
        &replace.input,
        &replace_campaign,
        &replace_predicate,
        &replace_config,
    );

    // One shared 2-worker fleet; both coordinators dial the same addrs.
    let exe = Path::new(env!("CARGO_BIN_EXE_symplfied"));
    let serve_args: Vec<String> = ["serve", "--listen", "127.0.0.1:0"]
        .map(String::from)
        .to_vec();
    let workers = spawn_loopback_workers(exe, &serve_args, 2).expect("spawn 2 worker processes");
    let addrs = workers.addrs.clone();

    let tcas_job = CampaignJob {
        program: &tcas.program,
        program_id: "tcas",
        input: &tcas.input,
        campaign: &tcas_campaign,
        predicate: &tcas_predicate,
        config: &tcas_config,
    };
    let replace_job = CampaignJob {
        program: &replace.program,
        program_id: "replace",
        input: &replace.input,
        campaign: &replace_campaign,
        predicate: &replace_predicate,
        config: &replace_config,
    };
    let opts_for = |label: &str, priority: u64| DistOptions {
        // Neither coordinator owns the shared fleet; it is drained
        // explicitly below once both campaigns are done.
        shutdown_workers: false,
        client_label: Some(label.to_owned()),
        client_priority: priority,
        ..DistOptions::default()
    };

    let (tcas_dist, replace_dist) = std::thread::scope(|scope| {
        let a = scope.spawn(|| run_distributed_with(&tcas_job, &addrs, &opts_for("tcas", 1)));
        let b = scope.spawn(|| run_distributed_with(&replace_job, &addrs, &opts_for("replace", 2)));
        (
            a.join().expect("tcas coordinator thread"),
            b.join().expect("replace coordinator thread"),
        )
    });
    let tcas_dist = tcas_dist.expect("tcas campaign over the shared fleet");
    let replace_dist = replace_dist.expect("replace campaign over the shared fleet");

    for addr in &addrs {
        shutdown_worker(addr).expect("drain a shared worker");
    }
    workers
        .join()
        .expect("workers exit cleanly after the drain");

    assert_verbatim(&tcas_dist, &tcas_local, "tcas");
    assert_verbatim(&replace_dist, &replace_local, "replace");
}

/// What makes the daemon's once-per-process resolve safe: the program it
/// keeps for an id digests exactly like the fresh build a coordinator
/// digests into its task frames.
#[test]
fn a_resolved_workload_digests_like_a_fresh_build() {
    use symplfied::wire::program_digest;
    for fresh in [symplfied::apps::tcas(), symplfied::apps::replace()] {
        let resolved = symplfied::apps::resolve_workload(fresh.name).expect("a bundled workload");
        assert_eq!(
            program_digest(&resolved.program),
            program_digest(&fresh.program),
            "{}",
            fresh.name
        );
    }
}
