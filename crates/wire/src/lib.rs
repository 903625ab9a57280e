//! # sympl-wire — cluster-over-network campaigns
//!
//! The paper's evaluation ran its injection campaigns "on a cluster of 150
//! dual-processor AMD Opteron machines". `sympl-cluster` reproduces that
//! harness on in-process threads; this crate takes it over the network: a
//! compact, dependency-free wire protocol for campaign tasks and results,
//! and a `std::net` TCP transport — a coordinator that distributes
//! injection-point shards to remote workers and a worker agent
//! (`symplfied serve --listen <addr>`) that runs them through the exact
//! same engine code path as the in-process pool. The worker side is a
//! *multi-tenant campaign service* ([`WorkerServer::serve_with`]): many
//! concurrent coordinators share one fleet, scheduled fairly by a
//! weighted round-robin [`FairScheduler`] and admitted through a
//! `ClientHello`/`ClientAccept` session handshake bounded by a
//! `--max-clients` accept gate.
//!
//! ## Protocol summary
//!
//! The full versioned byte-level specification — preamble and version
//! negotiation, the frame table, the session/conversation state machines,
//! elastic membership, shard splitting, and the checkpoint (`SYCP`) and
//! memo (`SYMO`) file formats — lives in **`docs/PROTOCOL.md`** at the
//! repository root; the operator's guide to running fleets is
//! **`docs/OPERATIONS.md`**. The short version:
//!
//! - Every connection opens with a symmetric preamble (`b"SYWR"` +
//!   varint [`PROTOCOL_VERSION`], currently 4); any mismatch refuses the
//!   connection before a single frame is exchanged.
//! - After the preamble the connection is varint-length-prefixed frames
//!   (capped at [`MAX_FRAME_LEN`]), each a tag byte plus a
//!   self-delimiting body built from the workspace's varint codecs — no
//!   serde, byte-stable against the golden vectors under
//!   `tests/wire_golden/`.
//! - A coordinator session announces itself with `ClientHello` (label +
//!   scheduling priority, v4) and then runs the supervised
//!   request/response loop: `Task`, `Heartbeat`s at the cadence the task
//!   frame carries, `TaskDone`/`Error`, until the queue drains; liveness
//!   is derived from the heartbeat cadence via [`liveness_deadline`],
//!   never from task budgets, and failures re-queue with the
//!   deterministic [`backoff_delay`].
//! - Late workers join a *running* campaign with `Register`/`Welcome`
//!   (v3) and idle workers can reclaim work through outcome-preserving
//!   shard splits; neither membership nor scheduling ever feeds the
//!   outcome digest.
//!
//! ### Determinism contract
//!
//! Task sharding ([`sympl_cluster::shard_specs`]), per-task execution
//! ([`sympl_cluster::run_task_spec`]), and result pooling
//! ([`sympl_cluster::pool_results`]) are the *same functions* the
//! in-process pool uses; the coordinator ships the resolved point-workers
//! share with every task (every point search is sequential whatever it
//! says, and the campaign key hashes a constant in its place). A distributed campaign whose point
//! searches are not cut by a wall-clock budget therefore reproduces the in-process campaign's
//! [`sympl_cluster::CampaignReport`] verbatim — same per-task outcome
//! counts, same findings in the same canonical order, same witness
//! traces, same [`sympl_cluster::CampaignReport::outcome_digest`]. Only
//! the wall-clock fields (`elapsed`, per-task `elapsed`) differ. The
//! contract is tenant-blind: a campaign interleaved with other clients on
//! a shared service hits the same digest as a run with the fleet to
//! itself. The `distributed-campaign` CI job gates on exactly this
//! contract with loopback worker processes — including two campaigns run
//! concurrently against one shared fleet (`just service-demo`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
mod checkpoint;
mod coordinator;
mod frame;
mod proto;
pub mod service;
mod spawn;
mod transport;

use std::fmt;
use std::io;
use std::time::Duration;

pub use checkpoint::{
    campaign_key, load_checkpoint, parse_checkpoint, CheckpointFile, CheckpointWriter,
    CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
};
pub use frame::{
    handshake, read_frame, read_preamble, write_frame, write_preamble, MAGIC, MAX_FRAME_LEN,
    PROTOCOL_VERSION,
};
pub use proto::{decode_message, encode_message, Message, TaskFrame};
pub use service::{
    join_coordinator, ClientStats, FairScheduler, ServeOptions, ServiceStats, DEFAULT_MAX_CLIENTS,
};
pub use spawn::{spawn_loopback_workers, SpawnedWorkers};
pub use transport::{
    backoff_delay, liveness_deadline, run_distributed, run_distributed_with, shutdown_worker,
    CampaignJob, ChaosPlan, DistOptions, ProgramResolver, WorkerServer, DEFAULT_HEARTBEAT_INTERVAL,
    LISTENING_PREFIX, MAX_SPLIT_DEPTH, MIN_HEARTBEAT_INTERVAL,
};

pub use sympl_symbolic::CodecError;

/// A transport- or protocol-level failure.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed.
    Io(io::Error),
    /// A frame payload did not decode.
    Codec(CodecError),
    /// The peer's preamble did not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The peer speaks a different protocol revision.
    VersionMismatch {
        /// Our [`PROTOCOL_VERSION`].
        ours: u64,
        /// The version the peer announced.
        theirs: u64,
    },
    /// A frame announced a payload larger than [`MAX_FRAME_LEN`].
    FrameTooLarge(usize),
    /// The peer closed the connection at a frame boundary.
    Disconnected,
    /// The peer reported an application-level error (e.g. an unknown
    /// program id or a program-digest mismatch).
    Remote(String),
    /// The peer sent a message that makes no sense in the current
    /// conversation state (e.g. a `Task` frame sent to a coordinator).
    UnexpectedMessage(&'static str),
    /// Tasks remained after every worker connection failed or was
    /// exhausted; the campaign could not complete.
    NoWorkersLeft {
        /// Tasks still unfinished when the last worker was lost.
        pending: usize,
    },
    /// A connection with a task in flight went silent past its
    /// heartbeat-derived liveness deadline; the worker is declared dead.
    LivenessExpired {
        /// How long the connection had been silent.
        silent_for: Duration,
    },
    /// The in-flight task was cancelled because the campaign is aborting.
    TaskCancelled,
    /// The coordinator was deliberately aborted mid-campaign by the chaos
    /// plan (a deterministic stand-in for a coordinator crash); the
    /// checkpoint file holds everything completed so far.
    CoordinatorAborted {
        /// Task results pooled (and checkpointed) before the abort.
        completed: usize,
    },
    /// A checkpoint file does not belong to this campaign (different
    /// program, config, or sharding) and cannot be resumed from.
    StaleCheckpoint(String),
    /// A checkpoint record failed its digest or structure check — the
    /// file is damaged beyond the crash-truncated tail the loader
    /// tolerates.
    CheckpointCorrupt {
        /// Byte offset of the damaged record.
        offset: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::Codec(e) => write!(f, "malformed frame: {e}"),
            WireError::BadMagic(m) => write!(f, "peer sent bad magic {m:02x?}"),
            WireError::VersionMismatch { ours, theirs } => {
                write!(f, "protocol version mismatch: ours {ours}, peer's {theirs}")
            }
            WireError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds the cap"),
            WireError::Disconnected => f.write_str("peer disconnected"),
            WireError::Remote(msg) => write!(f, "peer error: {msg}"),
            WireError::UnexpectedMessage(what) => {
                write!(f, "peer sent an out-of-place {what} frame")
            }
            WireError::NoWorkersLeft { pending } => {
                write!(f, "no workers left with {pending} task(s) pending")
            }
            WireError::LivenessExpired { silent_for } => {
                write!(
                    f,
                    "worker silent for {silent_for:?}, past its liveness deadline"
                )
            }
            WireError::TaskCancelled => f.write_str("task cancelled by campaign abort"),
            WireError::CoordinatorAborted { completed } => {
                write!(
                    f,
                    "coordinator aborted by chaos plan after {completed} completed task(s)"
                )
            }
            WireError::StaleCheckpoint(why) => {
                write!(f, "checkpoint is stale for this campaign: {why}")
            }
            WireError::CheckpointCorrupt { offset } => {
                write!(f, "checkpoint record at byte {offset} is corrupt")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            WireError::Disconnected
        } else {
            WireError::Io(e)
        }
    }
}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        WireError::Codec(e)
    }
}

/// A deterministic FNV-128 digest of a program's listing, carried in every
/// task frame. Workers refuse tasks whose digest does not match the
/// program they resolved for the task's program id, so a version-skewed
/// worker (different workload revision under the same name) fails loudly
/// instead of silently computing a different campaign.
#[must_use]
pub fn program_digest(program: &sympl_asm::Program) -> u128 {
    use std::hash::Hasher as _;
    let mut h = sympl_symbolic::Fnv128Hasher::new();
    h.write(program.listing().as_bytes());
    h.finish128()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympl_asm::parse_program;

    #[test]
    fn program_digest_is_content_pure() {
        let a = parse_program("read $1\nprint $1\nhalt").unwrap();
        let b = parse_program("read $1\nprint $1\nhalt").unwrap();
        let c = parse_program("read $2\nprint $2\nhalt").unwrap();
        assert_eq!(program_digest(&a), program_digest(&b));
        assert_ne!(program_digest(&a), program_digest(&c));
    }

    #[test]
    fn wire_errors_render() {
        let errors: Vec<WireError> = vec![
            io::Error::new(io::ErrorKind::ConnectionRefused, "nope").into(),
            io::Error::new(io::ErrorKind::UnexpectedEof, "eof").into(),
            CodecError::UnexpectedEnd.into(),
            WireError::BadMagic(*b"HTTP"),
            WireError::VersionMismatch { ours: 1, theirs: 2 },
            WireError::FrameTooLarge(usize::MAX),
            WireError::Remote("unknown program".into()),
            WireError::UnexpectedMessage("task"),
            WireError::NoWorkersLeft { pending: 3 },
            WireError::LivenessExpired {
                silent_for: Duration::from_secs(3),
            },
            WireError::TaskCancelled,
            WireError::CoordinatorAborted { completed: 5 },
            WireError::StaleCheckpoint("campaign key mismatch".into()),
            WireError::CheckpointCorrupt { offset: 42 },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
        assert!(matches!(
            WireError::from(io::Error::new(io::ErrorKind::UnexpectedEof, "eof")),
            WireError::Disconnected
        ));
    }
}
