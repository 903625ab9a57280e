//! The message vocabulary: campaign tasks and results as byte payloads.
//!
//! Each payload is a tag byte plus a body of [`Codec`] records: leaf
//! varints (`sympl_symbolic::codec`), machine states
//! (`sympl_machine::codec`), limits and solutions (`sympl_check::codec`),
//! injection points, and task results and findings. See the crate docs
//! for the frame table.

use std::time::Duration;

use sympl_check::codec::encode_predicate;
use sympl_check::{Predicate, SearchLimits};
use sympl_cluster::{Finding, TaskResult, TaskSpec};
use sympl_symbolic::codec::Codec;
use sympl_symbolic::codec_record;

use crate::CodecError;

const MSG_TASK: u8 = 0;
const MSG_TASK_DONE: u8 = 1;
const MSG_ERROR: u8 = 2;
const MSG_SHUTDOWN: u8 = 3;
const MSG_HEARTBEAT: u8 = 4;
const MSG_CANCEL: u8 = 5;
const MSG_REGISTER: u8 = 6;
const MSG_WELCOME: u8 = 7;
const MSG_CLIENT_HELLO: u8 = 8;
const MSG_CLIENT_ACCEPT: u8 = 9;

/// One campaign task as shipped to a remote worker: everything
/// [`sympl_cluster::run_task_spec`] needs, plus the program identity the
/// worker resolves and verifies.
#[derive(Debug, Clone)]
pub struct TaskFrame {
    /// The program the worker must resolve (a bundled workload name, e.g.
    /// `"tcas"`).
    pub program_id: String,
    /// FNV-128 digest of the resolved program's listing
    /// ([`crate::program_digest`]); the worker refuses the task on
    /// mismatch, so version skew fails loudly.
    pub program_digest: u128,
    /// The campaign's input stream.
    pub input: Vec<i64>,
    /// The task shard: id plus the injection points to sweep.
    pub spec: TaskSpec,
    /// The outcome predicate (wire-encodable variants only).
    pub predicate: Predicate,
    /// Per-point search budgets, frontier policy, and spill budget.
    pub search: SearchLimits,
    /// Wall-clock budget for the whole task.
    pub task_budget: Option<Duration>,
    /// Finding cap for the task (the paper capped at 10).
    pub max_findings: usize,
    /// The resolved point-search worker share the coordinator computed.
    /// Every point search is sequential whatever it says; kept because
    /// task-frame bytes carry it.
    pub point_workers: usize,
    /// The heartbeat cadence the worker must keep while this task is in
    /// flight: at least one `Heartbeat` (or the final `TaskDone`) frame
    /// per interval. The coordinator derives its per-connection liveness
    /// deadline from this value, so liveness never depends on the task
    /// budget — an unbudgeted task on a healthy worker heartbeats
    /// forever, while a wedged worker is detected within a few intervals.
    pub heartbeat_interval: Duration,
}

/// A protocol message (one frame payload).
#[derive(Debug)]
pub enum Message {
    /// Coordinator → worker: run this task.
    Task(TaskFrame),
    /// Worker → coordinator: the task's results.
    TaskDone {
        /// The per-task statistics, exactly as the in-process pool
        /// produces them.
        result: TaskResult,
        /// Every finding, with its terminal state and witness trace.
        findings: Vec<Finding>,
    },
    /// Worker → coordinator: the task was refused (unknown program,
    /// digest mismatch, undecodable limits, …) or cancelled.
    Error(String),
    /// Coordinator → worker: drain and exit the serve loop.
    Shutdown,
    /// Worker → coordinator: still alive and computing the in-flight
    /// task. Sent at the task frame's `heartbeat_interval` cadence; the
    /// coordinator's liveness deadline re-arms on every received frame.
    Heartbeat,
    /// Coordinator → worker: stop the in-flight task as soon as
    /// practicable (point-search granularity) and answer with an
    /// `Error("task cancelled")` acknowledgement. Sent when the
    /// coordinator is aborting a campaign, so workers stay healthy for
    /// the next one instead of finishing a doomed sweep.
    Cancel,
    /// Worker → coordinator: request admission into a running campaign
    /// (sent immediately after the preamble on a join connection). The
    /// label is free-form and purely diagnostic — membership never feeds
    /// the campaign key or the outcome digest.
    Register {
        /// A human-readable worker label (host/pid style), for logs.
        worker: String,
    },
    /// Coordinator → worker: admission granted. Carries the campaign's
    /// program identity so the joiner can resolve and warm the program
    /// before its first task arrives (every subsequent `Task` frame
    /// still carries the digest, which the worker re-verifies).
    Welcome {
        /// The bundled workload name the campaign runs.
        program_id: String,
        /// FNV-128 digest of the resolved program's listing.
        program_digest: u128,
    },
    /// Coordinator → worker: the mandatory first frame on a serve
    /// connection (protocol v4). Identifies the client session to the
    /// multi-tenant campaign service: the label is free-form and purely
    /// diagnostic (logs and `ServiceStats`), while the priority is the
    /// client's weight in the service's round-robin scheduler (clamped
    /// to ≥ 1 by the receiver). Neither field feeds the campaign key or
    /// the outcome digest.
    ClientHello {
        /// A human-readable client label (campaign/pid style), for logs
        /// and per-client accounting.
        client: String,
        /// The scheduling weight: a backlogged client receives `priority`
        /// task slots per scheduler round.
        priority: u64,
    },
    /// Worker → coordinator: session admitted. A full service answers a
    /// `ClientHello` with a typed `Error` frame instead.
    ClientAccept {
        /// The service-assigned session id, echoed in status log lines.
        client_id: u64,
    },
}

codec_record! {
    struct TaskFrame {
        program_id, program_digest, input, spec, predicate, search, task_budget, max_findings,
        point_workers, heartbeat_interval,
    }
}

codec_record! {
    enum Message as "message" {
        MSG_TASK => Task(task),
        MSG_TASK_DONE => TaskDone { result, findings },
        MSG_ERROR => Error(message),
        MSG_SHUTDOWN => Shutdown,
        MSG_HEARTBEAT => Heartbeat,
        MSG_CANCEL => Cancel,
        MSG_REGISTER => Register { worker },
        MSG_WELCOME => Welcome { program_id, program_digest },
        MSG_CLIENT_HELLO => ClientHello { client, priority },
        MSG_CLIENT_ACCEPT => ClientAccept { client_id },
    }
}

/// Encodes a [`Message`] into a frame payload.
///
/// # Errors
///
/// [`CodecError::Unsupported`] when a task frame carries a
/// closure-backed [`Predicate::Custom`].
pub fn encode_message(message: &Message) -> Result<Vec<u8>, CodecError> {
    // Refused here because the predicate's record cannot fail: it panics.
    if let Message::Task(task) = message {
        encode_predicate(&task.predicate, &mut Vec::new())?;
    }
    let mut buf = Vec::new();
    message.encode(&mut buf);
    Ok(buf)
}

/// Decodes a frame payload into a [`Message`], checking that the whole
/// payload is consumed (trailing garbage is corruption, not padding).
///
/// # Errors
///
/// Any [`CodecError`] on truncated, malformed, or over-long payloads.
pub fn decode_message(bytes: &[u8]) -> Result<Message, CodecError> {
    let mut pos = 0;
    let message = Message::decode(bytes, &mut pos)?;
    match bytes.get(pos) {
        None => Ok(message),
        Some(&tag) => Err(CodecError::BadTag {
            what: "trailing bytes after message",
            tag,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympl_asm::Reg;
    use sympl_check::{FrontierPolicy, Solution};
    use sympl_inject::{InjectTarget, InjectionPoint};
    use sympl_machine::MachineState;

    pub(crate) fn sample_task() -> TaskFrame {
        TaskFrame {
            program_id: "tcas".into(),
            program_digest: 0xDEAD_BEEF_0123_4567_89AB_CDEF_0011_2233,
            input: vec![5, -7, 0],
            spec: TaskSpec {
                id: 3,
                points: vec![
                    InjectionPoint::new(10, InjectTarget::Register(Reg::r(4))),
                    InjectionPoint::new(11, InjectTarget::ProgramCounter).at_occurrence(2),
                ],
            },
            predicate: Predicate::WrongOutput { expected: vec![1] },
            search: SearchLimits {
                policy: FrontierPolicy::Dfs,
                max_frontier_bytes: Some(512 << 10),
                ..SearchLimits::default()
            },
            task_budget: Some(Duration::from_secs(30)),
            max_findings: 10,
            point_workers: 1,
            heartbeat_interval: Duration::from_millis(500),
        }
    }

    fn sample_done() -> Message {
        let mut state = MachineState::new();
        state.set_status(sympl_machine::Status::Halted);
        Message::TaskDone {
            result: TaskResult {
                id: 3,
                points_examined: 2,
                points_total: 2,
                activated: 2,
                findings: 1,
                completed: true,
                elapsed: Duration::from_millis(123),
                states_explored: 456,
                point_workers: 1,
                steals: 0,
                peak_frontier_len: 7,
                peak_frontier_bytes: 1024,
                spilled_states: 0,
                memo_hits: 0,
                memo_states_skipped: 0,
                prefix_steps_saved: 0,
            },
            findings: vec![Finding {
                task_id: 3,
                point: InjectionPoint::new(10, InjectTarget::Register(Reg::r(4))),
                solution: Solution {
                    state,
                    trace: vec![0, 1, 2],
                },
            }],
        }
    }

    #[test]
    fn task_frames_roundtrip() {
        let task = sample_task();
        let bytes = encode_message(&Message::Task(task.clone())).unwrap();
        let Message::Task(decoded) = decode_message(&bytes).unwrap() else {
            panic!("wrong message kind");
        };
        assert_eq!(decoded.program_id, task.program_id);
        assert_eq!(decoded.program_digest, task.program_digest);
        assert_eq!(decoded.input, task.input);
        assert_eq!(decoded.spec, task.spec);
        assert_eq!(
            format!("{:?}", decoded.predicate),
            format!("{:?}", task.predicate)
        );
        assert_eq!(decoded.search.policy, task.search.policy);
        assert_eq!(
            decoded.search.max_frontier_bytes,
            task.search.max_frontier_bytes
        );
        assert_eq!(decoded.task_budget, task.task_budget);
        assert_eq!(decoded.max_findings, task.max_findings);
        assert_eq!(decoded.point_workers, task.point_workers);
        assert_eq!(decoded.heartbeat_interval, task.heartbeat_interval);
    }

    #[test]
    fn heartbeat_and_cancel_frames_roundtrip() {
        let bytes = encode_message(&Message::Heartbeat).unwrap();
        assert_eq!(bytes, [MSG_HEARTBEAT], "heartbeats are a single byte");
        assert!(matches!(
            decode_message(&bytes).unwrap(),
            Message::Heartbeat
        ));
        let bytes = encode_message(&Message::Cancel).unwrap();
        assert_eq!(bytes, [MSG_CANCEL], "cancels are a single byte");
        assert!(matches!(decode_message(&bytes).unwrap(), Message::Cancel));
        // Trailing garbage after a control frame is corruption.
        assert!(decode_message(&[MSG_HEARTBEAT, 0]).is_err());
        assert!(decode_message(&[MSG_CANCEL, 0]).is_err());
    }

    #[test]
    fn results_and_control_frames_roundtrip() {
        let done = sample_done();
        let bytes = encode_message(&done).unwrap();
        let decoded = decode_message(&bytes).unwrap();
        let (
            Message::TaskDone {
                result: a,
                findings: fa,
            },
            Message::TaskDone {
                result: b,
                findings: fb,
            },
        ) = (&done, &decoded)
        else {
            panic!("wrong message kind");
        };
        assert_eq!(a, b);
        assert_eq!(fa, fb);

        let bytes = encode_message(&Message::Error("nope".into())).unwrap();
        assert!(matches!(decode_message(&bytes).unwrap(), Message::Error(m) if m == "nope"));
        let bytes = encode_message(&Message::Shutdown).unwrap();
        assert!(matches!(decode_message(&bytes).unwrap(), Message::Shutdown));
    }

    #[test]
    fn membership_frames_roundtrip() {
        let bytes = encode_message(&Message::Register {
            worker: "joiner-7".into(),
        })
        .unwrap();
        assert_eq!(bytes[0], MSG_REGISTER);
        assert!(matches!(
            decode_message(&bytes).unwrap(),
            Message::Register { worker } if worker == "joiner-7"
        ));

        let bytes = encode_message(&Message::Welcome {
            program_id: "tcas".into(),
            program_digest: 0xFEED_FACE_CAFE_BEEF_0123_4567_89AB_CDEF,
        })
        .unwrap();
        assert_eq!(bytes[0], MSG_WELCOME);
        let Message::Welcome {
            program_id,
            program_digest,
        } = decode_message(&bytes).unwrap()
        else {
            panic!("wrong message kind");
        };
        assert_eq!(program_id, "tcas");
        assert_eq!(program_digest, 0xFEED_FACE_CAFE_BEEF_0123_4567_89AB_CDEF);
        // Trailing garbage after either frame is corruption.
        let mut bytes = encode_message(&Message::Register { worker: "w".into() }).unwrap();
        bytes.push(0);
        assert!(decode_message(&bytes).is_err());
    }

    #[test]
    fn session_frames_roundtrip() {
        let bytes = encode_message(&Message::ClientHello {
            client: "tcas-campaign".into(),
            priority: 3,
        })
        .unwrap();
        assert_eq!(bytes[0], MSG_CLIENT_HELLO);
        let Message::ClientHello { client, priority } = decode_message(&bytes).unwrap() else {
            panic!("wrong message kind");
        };
        assert_eq!(client, "tcas-campaign");
        assert_eq!(priority, 3);

        let bytes = encode_message(&Message::ClientAccept { client_id: 42 }).unwrap();
        assert_eq!(bytes[0], MSG_CLIENT_ACCEPT);
        assert!(matches!(
            decode_message(&bytes).unwrap(),
            Message::ClientAccept { client_id: 42 }
        ));
        // Trailing garbage after either frame is corruption.
        let mut bytes = encode_message(&Message::ClientHello {
            client: "c".into(),
            priority: 1,
        })
        .unwrap();
        bytes.push(0);
        assert!(decode_message(&bytes).is_err());
        let mut bytes = encode_message(&Message::ClientAccept { client_id: 1 }).unwrap();
        bytes.push(0);
        assert!(decode_message(&bytes).is_err());
    }

    #[test]
    fn custom_predicates_cannot_cross_the_wire() {
        let mut task = sample_task();
        task.predicate = Predicate::custom(|_| true);
        assert!(matches!(
            encode_message(&Message::Task(task)),
            Err(CodecError::Unsupported(_))
        ));
    }

    #[test]
    fn corrupt_payloads_error_cleanly() {
        assert!(decode_message(&[]).is_err());
        assert!(matches!(
            decode_message(&[77]),
            Err(CodecError::BadTag {
                what: "message",
                ..
            })
        ));
        // Trailing garbage is rejected.
        let mut bytes = encode_message(&Message::Shutdown).unwrap();
        bytes.push(0);
        assert!(decode_message(&bytes).is_err());
        // Truncation anywhere inside a task frame is detected.
        let bytes = encode_message(&Message::Task(sample_task())).unwrap();
        for cut in 0..bytes.len() {
            assert!(decode_message(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }
}
