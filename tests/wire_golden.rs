//! Golden wire-format vectors: checked-in byte images of every frame kind
//! the distributed-campaign protocol ships, every variant of the records
//! those frames and the campaign/probe keys carry, and one `SYCP`
//! checkpoint and one `SYMO` memo store, pinned against the current
//! encoders *and* decoders.
//!
//! A change to any codec layer (leaf varints, state codec, record codecs,
//! message framing, preamble, sealed records) that moves bytes will fail
//! this suite — the signal that [`symplfied::wire::PROTOCOL_VERSION`] (or
//! the file format's version) must be bumped *before* old workers are
//! stranded mid-campaign. CI runs this in release mode on every push.
//!
//! To regenerate after an *intentional* format change (with the version
//! bump):
//!
//! ```text
//! WIRE_GOLDEN_REGEN=1 cargo test --test wire_golden
//! ```

use std::path::PathBuf;
use std::time::Duration;

use symplfied::check::codec::{decode_predicate, encode_predicate};
use symplfied::check::{
    FrontierPolicy, MemoStore, OutcomeCounts, PriorityHeuristic, SearchLimits, Solution,
    SubtreeSummary,
};
use symplfied::cluster::{Finding, TaskResult, TaskSpec};
use symplfied::machine::{MachineState, OutItem, Status};
use symplfied::prelude::*;
use symplfied::symbolic::codec::Codec;
use symplfied::symbolic::{Constraint, Location, Value};
use symplfied::wire::{
    decode_message, encode_message, parse_checkpoint, read_frame, write_frame, write_preamble,
    CheckpointWriter, Message, TaskFrame,
};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/wire_golden")
}

/// Compares `bytes` against the named golden file — or rewrites it under
/// `WIRE_GOLDEN_REGEN=1`.
fn check_golden(name: &str, bytes: &[u8]) {
    let path = golden_dir().join(name);
    if std::env::var_os("WIRE_GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create tests/wire_golden");
        std::fs::write(&path, bytes).expect("write golden vector");
        return;
    }
    let golden = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("missing golden vector {}: {e}", path.display()));
    assert_eq!(
        golden, bytes,
        "{name}: byte format changed — if intentional, bump PROTOCOL_VERSION and \
         regenerate with WIRE_GOLDEN_REGEN=1"
    );
}

/// A fully deterministic machine state exercising every encoded component.
fn fixture_state() -> MachineState {
    let mut s = MachineState::with_input(vec![25, 99, -4]);
    let _ = s.read_input();
    s.set_pc(42);
    for _ in 0..9 {
        s.bump_steps();
    }
    s.set_reg(Reg::r(1), Value::Int(-7));
    s.set_reg(Reg::r(13), Value::Err);
    s.load_memory([(0, 640), (8, -1), (2048, 3)]);
    s.set_mem(16, Value::Err);
    let _ = s
        .constraints_mut()
        .constrain(Location::reg(13), Constraint::Gt(2));
    let _ = s
        .constraints_mut()
        .constrain(Location::Mem(16), Constraint::Ne(0));
    s.push_output(OutItem::Str("Advisory = ".into()));
    s.push_output(OutItem::Val(Value::Int(2)));
    s.set_status(Status::Halted);
    s
}

fn fixture_task() -> TaskFrame {
    TaskFrame {
        program_id: "tcas".into(),
        program_digest: 0x0123_4567_89AB_CDEF_FEDC_BA98_7654_3210,
        input: vec![601, 579, 4, 639, 0, 2],
        spec: TaskSpec {
            id: 7,
            points: vec![
                InjectionPoint::new(12, InjectTarget::Register(Reg::r(4))),
                InjectionPoint::new(57, InjectTarget::LoadedWord).at_occurrence(3),
                InjectionPoint::new(101, InjectTarget::ProgramCounter),
            ],
        },
        predicate: Predicate::WrongOutput { expected: vec![1] },
        search: SearchLimits {
            exec: symplfied::machine::ExecLimits::with_max_steps(5_000),
            max_states: 300_000,
            max_solutions: 10,
            max_time: Some(Duration::from_secs(60)),
            policy: FrontierPolicy::Bfs,
            max_frontier_bytes: Some(512 << 10),
        },
        task_budget: Some(Duration::from_secs(120)),
        max_findings: 10,
        point_workers: 1,
        heartbeat_interval: Duration::from_millis(500),
    }
}

fn fixture_done() -> Message {
    Message::TaskDone {
        result: TaskResult {
            id: 7,
            points_examined: 3,
            points_total: 3,
            activated: 3,
            findings: 1,
            completed: true,
            elapsed: Duration::from_millis(875),
            states_explored: 51_234,
            point_workers: 1,
            steals: 0,
            peak_frontier_len: 211,
            peak_frontier_bytes: 346_112,
            spilled_states: 0,
            // Not wire-encoded (process-local cache stats); zero keeps the
            // decoded struct equal to this fixture.
            memo_hits: 0,
            memo_states_skipped: 0,
            prefix_steps_saved: 0,
        },
        findings: vec![Finding {
            task_id: 7,
            point: InjectionPoint::new(12, InjectTarget::Register(Reg::r(4))),
            solution: Solution {
                state: fixture_state(),
                trace: vec![0, 1, 2, 12, 13, 57, 101, 102],
            },
        }],
    }
}

fn framed(message: &Message) -> Vec<u8> {
    let payload = encode_message(message).expect("fixtures are wire-encodable");
    let mut buf = Vec::new();
    write_frame(&mut buf, &payload).expect("in-memory frame write");
    buf
}

#[test]
fn preamble_bytes_are_pinned() {
    let mut buf = Vec::new();
    write_preamble(&mut buf).unwrap();
    check_golden("preamble.bin", &buf);
    // And it must open with the magic in the clear.
    assert_eq!(&buf[..4], b"SYWR");
}

#[test]
fn task_frame_bytes_are_pinned_and_decode() {
    let bytes = framed(&Message::Task(fixture_task()));
    check_golden("task_frame.bin", &bytes);

    // Decode the *golden file* (not our fresh encoding), proving old
    // bytes still decode to the expected campaign task.
    let golden = std::fs::read(golden_dir().join("task_frame.bin")).unwrap();
    let payload = read_frame(&mut golden.as_slice()).unwrap();
    let Message::Task(task) = decode_message(&payload).unwrap() else {
        panic!("golden task frame decoded to the wrong message kind");
    };
    let expected = fixture_task();
    assert_eq!(task.program_id, expected.program_id);
    assert_eq!(task.program_digest, expected.program_digest);
    assert_eq!(task.input, expected.input);
    assert_eq!(task.spec, expected.spec);
    assert_eq!(task.search.max_states, expected.search.max_states);
    assert_eq!(
        task.search.max_frontier_bytes,
        expected.search.max_frontier_bytes
    );
    assert_eq!(task.task_budget, expected.task_budget);
    assert_eq!(task.point_workers, expected.point_workers);
    assert_eq!(task.heartbeat_interval, expected.heartbeat_interval);
}

#[test]
fn task_done_frame_bytes_are_pinned_and_decode() {
    let bytes = framed(&fixture_done());
    check_golden("task_done_frame.bin", &bytes);

    let golden = std::fs::read(golden_dir().join("task_done_frame.bin")).unwrap();
    let payload = read_frame(&mut golden.as_slice()).unwrap();
    let Message::TaskDone { result, findings } = decode_message(&payload).unwrap() else {
        panic!("golden result frame decoded to the wrong message kind");
    };
    let Message::TaskDone {
        result: expected_result,
        findings: expected_findings,
    } = fixture_done()
    else {
        unreachable!()
    };
    assert_eq!(result, expected_result);
    assert_eq!(findings, expected_findings);
    // The decoded solution state must carry live fingerprint caches.
    let state = &findings[0].solution.state;
    assert_eq!(state.fingerprint(), state.fingerprint_from_scratch());
    assert_eq!(state, &fixture_state());
}

#[test]
fn control_frame_bytes_are_pinned() {
    check_golden(
        "error_frame.bin",
        &framed(&Message::Error("program digest mismatch for `tcas`".into())),
    );
    check_golden("shutdown_frame.bin", &framed(&Message::Shutdown));

    let golden = std::fs::read(golden_dir().join("shutdown_frame.bin")).unwrap();
    let payload = read_frame(&mut golden.as_slice()).unwrap();
    assert!(matches!(
        decode_message(&payload).unwrap(),
        Message::Shutdown
    ));
}

#[test]
fn supervision_frame_bytes_are_pinned() {
    // The v2 fault-tolerance control frames: both are a single tag byte.
    check_golden("heartbeat_frame.bin", &framed(&Message::Heartbeat));
    check_golden("cancel_frame.bin", &framed(&Message::Cancel));

    let golden = std::fs::read(golden_dir().join("heartbeat_frame.bin")).unwrap();
    let payload = read_frame(&mut golden.as_slice()).unwrap();
    assert!(matches!(
        decode_message(&payload).unwrap(),
        Message::Heartbeat
    ));
    let golden = std::fs::read(golden_dir().join("cancel_frame.bin")).unwrap();
    let payload = read_frame(&mut golden.as_slice()).unwrap();
    assert!(matches!(decode_message(&payload).unwrap(), Message::Cancel));
}

#[test]
fn membership_frame_bytes_are_pinned() {
    // The v3 elastic-membership frames: a joining worker's Register and
    // the coordinator's Welcome.
    check_golden(
        "register_frame.bin",
        &framed(&Message::Register {
            worker: "joiner-pid4242".into(),
        }),
    );
    check_golden(
        "welcome_frame.bin",
        &framed(&Message::Welcome {
            program_id: "tcas".into(),
            program_digest: 0x0123_4567_89AB_CDEF_FEDC_BA98_7654_3210,
        }),
    );

    let golden = std::fs::read(golden_dir().join("register_frame.bin")).unwrap();
    let payload = read_frame(&mut golden.as_slice()).unwrap();
    let Message::Register { worker } = decode_message(&payload).unwrap() else {
        panic!("golden register frame decoded to the wrong message kind");
    };
    assert_eq!(worker, "joiner-pid4242");

    let golden = std::fs::read(golden_dir().join("welcome_frame.bin")).unwrap();
    let payload = read_frame(&mut golden.as_slice()).unwrap();
    let Message::Welcome {
        program_id,
        program_digest,
    } = decode_message(&payload).unwrap()
    else {
        panic!("golden welcome frame decoded to the wrong message kind");
    };
    assert_eq!(program_id, "tcas");
    assert_eq!(program_digest, 0x0123_4567_89AB_CDEF_FEDC_BA98_7654_3210);
}

#[test]
fn session_frame_bytes_are_pinned() {
    // The v4 campaign-service frames: a coordinator's ClientHello and the
    // multi-tenant service's ClientAccept.
    check_golden(
        "client_hello_frame.bin",
        &framed(&Message::ClientHello {
            client: "campaign-tcas".into(),
            priority: 3,
        }),
    );
    check_golden(
        "client_accept_frame.bin",
        &framed(&Message::ClientAccept { client_id: 17 }),
    );

    let golden = std::fs::read(golden_dir().join("client_hello_frame.bin")).unwrap();
    let payload = read_frame(&mut golden.as_slice()).unwrap();
    let Message::ClientHello { client, priority } = decode_message(&payload).unwrap() else {
        panic!("golden client-hello frame decoded to the wrong message kind");
    };
    assert_eq!(client, "campaign-tcas");
    assert_eq!(priority, 3);

    let golden = std::fs::read(golden_dir().join("client_accept_frame.bin")).unwrap();
    let payload = read_frame(&mut golden.as_slice()).unwrap();
    let Message::ClientAccept { client_id } = decode_message(&payload).unwrap() else {
        panic!("golden client-accept frame decoded to the wrong message kind");
    };
    assert_eq!(client_id, 17);
}

// ---------------------------------------------------------------------
// Record variants and persistence formats. The frame vectors above cover
// one value per record; `campaign_key` and `probe_digest` hash the same
// record bytes for every variant, so each variant gets pinned here too.
// ---------------------------------------------------------------------

fn fixture_policies() -> Vec<FrontierPolicy> {
    vec![
        FrontierPolicy::Bfs,
        FrontierPolicy::Dfs,
        FrontierPolicy::Priority(PriorityHeuristic::ConstraintMapSize),
        FrontierPolicy::Priority(PriorityHeuristic::Depth),
        FrontierPolicy::Priority(PriorityHeuristic::OutputLen),
        FrontierPolicy::IterativeDeepening {
            initial_depth: 7,
            depth_step: 300,
        },
    ]
}

/// Every predicate that has a wire form (`Custom` is refused at encode).
fn fixture_predicates() -> Vec<Predicate> {
    vec![
        Predicate::OutputContainsErr,
        Predicate::WrongOutput {
            expected: vec![1, -2, 300],
        },
        Predicate::ExactOutput {
            output: vec![2, i64::MIN, i64::MAX],
        },
        Predicate::ExactOutput { output: vec![] },
        Predicate::Crashed,
        Predicate::Hung,
        Predicate::Detected,
        Predicate::Any,
    ]
}

/// One injection point per target kind, with varied breakpoints and
/// occurrences.
fn fixture_points() -> Vec<InjectionPoint> {
    [
        InjectTarget::Register(Reg::r(31)),
        InjectTarget::LoadedWord,
        InjectTarget::Destination,
        InjectTarget::ChangedTarget { wrong: Reg::r(5) },
        InjectTarget::NopToTargeted { wrong: Reg::r(9) },
        InjectTarget::TargetedToNop,
        InjectTarget::ProgramCounter,
    ]
    .into_iter()
    .enumerate()
    .map(|(i, target)| InjectionPoint::new(100 * i + 3, target).at_occurrence(i as u32 * 70))
    .collect()
}

fn fixture_exec_limits() -> Vec<ExecLimits> {
    vec![
        ExecLimits {
            max_steps: 5_000,
            fork_jump_targets: Some(3),
            fork_mem_targets: None,
            track_constraints: false,
        },
        ExecLimits {
            max_steps: u64::MAX,
            fork_jump_targets: None,
            fork_mem_targets: Some(0),
            track_constraints: true,
        },
    ]
}

fn fixture_search_limits() -> Vec<SearchLimits> {
    let [exact, loose] = <[ExecLimits; 2]>::try_from(fixture_exec_limits()).unwrap();
    vec![
        SearchLimits {
            exec: exact,
            max_states: 0,
            max_solutions: usize::MAX,
            max_time: None,
            policy: FrontierPolicy::Dfs,
            max_frontier_bytes: None,
        },
        SearchLimits {
            exec: loose,
            max_states: 450_000,
            max_solutions: 1,
            max_time: Some(Duration::new(3, 999_999_999)),
            policy: FrontierPolicy::IterativeDeepening {
                initial_depth: 1,
                depth_step: 1,
            },
            max_frontier_bytes: Some(16 << 20),
        },
    ]
}

#[test]
fn record_variant_bytes_are_pinned_and_decode() {
    let mut bytes = Vec::new();
    for policy in fixture_policies() {
        policy.encode(&mut bytes);
    }
    for predicate in fixture_predicates() {
        encode_predicate(&predicate, &mut bytes).expect("fixture predicates are encodable");
    }
    for point in fixture_points() {
        point.encode(&mut bytes);
    }
    for limits in fixture_exec_limits() {
        limits.encode(&mut bytes);
    }
    for limits in fixture_search_limits() {
        limits.encode(&mut bytes);
    }
    check_golden("record_variants.bin", &bytes);

    let golden = std::fs::read(golden_dir().join("record_variants.bin")).unwrap();
    let pos = &mut 0;
    for policy in fixture_policies() {
        assert_eq!(FrontierPolicy::decode(&golden, pos).unwrap(), policy);
    }
    for predicate in fixture_predicates() {
        let decoded = decode_predicate(&golden, pos).unwrap();
        assert_eq!(format!("{decoded:?}"), format!("{predicate:?}"));
    }
    for point in fixture_points() {
        assert_eq!(InjectionPoint::decode(&golden, pos).unwrap(), point);
    }
    for limits in fixture_exec_limits() {
        assert_eq!(ExecLimits::decode(&golden, pos).unwrap(), limits);
    }
    for limits in fixture_search_limits() {
        let decoded = SearchLimits::decode(&golden, pos).unwrap();
        assert_eq!(format!("{decoded:?}"), format!("{limits:?}"));
    }
    assert_eq!(*pos, golden.len(), "every golden byte decoded");
}

fn fixture_checkpoint_entries() -> Vec<(TaskResult, Vec<Finding>)> {
    let Message::TaskDone { result, findings } = fixture_done() else {
        unreachable!()
    };
    let empty = TaskResult {
        id: 2,
        completed: false,
        findings: 0,
        spilled_states: 40,
        ..result.clone()
    };
    vec![(result, findings), (empty, Vec::new())]
}

#[test]
fn checkpoint_bytes_are_pinned_and_parse() {
    let path = std::env::temp_dir().join(format!("sympl-golden-sycp-{}", std::process::id()));
    let mut writer = CheckpointWriter::create(&path, 0x0123_4567_89AB_CDEF_FEDC_BA98_7654_3210, 3)
        .expect("create checkpoint");
    for entry in fixture_checkpoint_entries() {
        writer.append(&entry).expect("append record");
    }
    drop(writer);
    let bytes = std::fs::read(&path).expect("read checkpoint back");
    let _ = std::fs::remove_file(&path);
    check_golden("checkpoint.sycp", &bytes);

    let golden = std::fs::read(golden_dir().join("checkpoint.sycp")).unwrap();
    let file = parse_checkpoint(&golden).expect("golden checkpoint parses");
    assert_eq!(file.key, 0x0123_4567_89AB_CDEF_FEDC_BA98_7654_3210);
    assert_eq!(file.tasks_total, 3);
    assert!(!file.truncated_tail);
    assert_eq!(file.entries, fixture_checkpoint_entries());
}

fn fixture_summaries() -> Vec<(u128, SubtreeSummary)> {
    let summary = SubtreeSummary {
        states_explored: 51_234,
        duplicate_hits: 1_017,
        terminals: OutcomeCounts {
            halted: 30,
            crashed: 4,
            hung: 1,
            detected: 0,
        },
        solutions: vec![Solution {
            state: fixture_state(),
            trace: vec![0, 1, 2, 12, 13],
        }],
        max_depth: 88,
        peak_frontier_len: 211,
        peak_frontier_bytes: 346_112,
        spilled_states: 0,
        workers: 1,
        steals: 0,
        exhausted: true,
        hit_state_cap: false,
        hit_solution_cap: false,
    };
    let capped = SubtreeSummary {
        solutions: Vec::new(),
        workers: 2,
        steals: 9,
        exhausted: false,
        hit_state_cap: true,
        hit_solution_cap: true,
        ..summary.clone()
    };
    vec![(u128::MAX - 5, summary), (17, capped)]
}

#[test]
fn memo_store_bytes_are_pinned_and_parse() {
    let key = 0xFEED_FACE_CAFE_BEEF_0123_4567_89AB_CDEF;
    let store = MemoStore::new(key);
    for (probe, summary) in fixture_summaries() {
        store.record(probe, summary);
    }
    check_golden("memo_store.symo", &store.to_bytes());

    let golden = std::fs::read(golden_dir().join("memo_store.symo")).unwrap();
    let (loaded, truncated) = MemoStore::parse(&golden, Some(key)).expect("golden store parses");
    assert!(!truncated);
    assert_eq!(
        loaded.to_bytes(),
        golden,
        "a parsed store re-serializes byte for byte"
    );
    for (probe, summary) in fixture_summaries() {
        let served = loaded.serve(probe).expect("every golden probe is served");
        assert_eq!(served.solutions, summary.solutions);
        assert_eq!(served.terminals, summary.terminals);
        assert_eq!(served.states_explored, summary.states_explored);
        assert_eq!(served.hit_solution_cap, summary.hit_solution_cap);
    }
}
