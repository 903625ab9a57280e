//! Campaign checkpointing: an append-only, codec-encoded record of every
//! completed task, so a coordinator that dies mid-campaign can be
//! restarted with `--resume` and re-queue *only* the missing shards.
//!
//! ## File format
//!
//! The `SYCP` format: `b"SYCP"` magic + [`CHECKPOINT_VERSION`] +
//! [`PROTOCOL_VERSION`](crate::PROTOCOL_VERSION) + the [`campaign_key`]
//! (an FNV-128 digest of the full campaign identity — a stale or foreign
//! checkpoint is refused) + shard count, followed by one sealed record
//! (`sympl_symbolic::codec::write_sealed_record`) per completed task in
//! the `TaskDone` body encoding. The normative byte layout lives in
//! **`docs/PROTOCOL.md`** (§2) at the repository root, next to the wire
//! and memo-store specs.
//!
//! Records are appended and flushed one at a time, so a coordinator
//! killed mid-append leaves at most one *truncated* trailing record. The
//! loader is deliberately lenient about exactly that case (the tail is
//! dropped and reported via [`CheckpointFile::truncated_tail`]) and
//! strict about everything else: a header that does not match, or a
//! record that fails its seal or does not decode, refuses to load.
//!
//! ## Determinism contract
//!
//! Task execution is deterministic (see the crate docs), so a resumed
//! campaign — checkpointed results merged with freshly re-run missing
//! shards through the same [`sympl_cluster::pool_results`] — produces a
//! [`sympl_cluster::CampaignReport`] whose
//! [`outcome_digest`](sympl_cluster::CampaignReport::outcome_digest) is
//! identical to an uninterrupted run's. The chaos acceptance suite gates
//! on exactly this.

use std::fs::File;
use std::hash::Hasher as _;
use std::io::{Read as _, Write as _};
use std::path::Path;

use sympl_check::codec::encode_predicate;
use sympl_cluster::{Finding, TaskResult};
use sympl_symbolic::codec::{read_sealed_records, write_sealed_record, Codec};
use sympl_symbolic::Fnv128Hasher;

use crate::frame::PROTOCOL_VERSION;
use crate::transport::CampaignJob;
use crate::{program_digest, CodecError, WireError};

/// The four bytes every checkpoint file opens with.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"SYCP";

/// The checkpoint container-format revision (header + record framing).
/// Record *payload* compatibility is tracked separately via the embedded
/// [`PROTOCOL_VERSION`].
pub const CHECKPOINT_VERSION: u64 = 1;

/// A deterministic FNV-128 digest of everything that identifies a
/// campaign: the program (by [`program_digest`]), the input stream, the
/// predicate, the full search limits, the task budget and finding cap,
/// the shard count, and every injection point in order. In the slot where
/// the resolved point-workers share used to go it hashes a constant `1`
/// (as [`sympl_check::probe_digest`] does): every point search is
/// sequential whatever the share says, and the share defaults to this
/// host's thread count, which must not make a checkpoint stale on another
/// host. Two [`CampaignJob`]s with the same key shard into the
/// same tasks and run them to the same outcomes, which is what makes a
/// checkpoint written by one coordinator safe for another to resume; a
/// checkpoint whose key differs is stale and is refused.
///
/// # Errors
///
/// [`CodecError::Unsupported`] when the predicate is a closure-backed
/// `Predicate::Custom` — such campaigns cannot be checkpointed (or
/// distributed) because their identity cannot be encoded.
pub fn campaign_key(job: &CampaignJob<'_>) -> Result<u128, CodecError> {
    let mut buf = Vec::new();
    program_digest(job.program).encode(&mut buf);
    job.input.to_vec().encode(&mut buf);
    encode_predicate(job.predicate, &mut buf)?;
    job.config.search.encode(&mut buf);
    job.config.task_budget.encode(&mut buf);
    job.config.max_findings_per_task.encode(&mut buf);
    1usize.encode(&mut buf);
    job.config.tasks.encode(&mut buf);
    job.campaign.points.encode(&mut buf);
    let mut h = Fnv128Hasher::new();
    h.write(&buf);
    Ok(h.finish128())
}

/// Appends completed-task records to a checkpoint file, one flushed
/// record per task, so the on-disk state is crash-consistent at record
/// granularity.
pub struct CheckpointWriter {
    file: File,
}

impl CheckpointWriter {
    /// Creates (truncating) a checkpoint file and writes its header.
    ///
    /// # Errors
    ///
    /// Any filesystem error.
    pub fn create(path: &Path, key: u128, tasks_total: usize) -> Result<Self, WireError> {
        let mut header = Vec::with_capacity(64);
        header.extend_from_slice(&CHECKPOINT_MAGIC);
        CHECKPOINT_VERSION.encode(&mut header);
        PROTOCOL_VERSION.encode(&mut header);
        key.encode(&mut header);
        tasks_total.encode(&mut header);
        let mut file = File::create(path).map_err(WireError::Io)?;
        file.write_all(&header).map_err(WireError::Io)?;
        file.flush().map_err(WireError::Io)?;
        Ok(CheckpointWriter { file })
    }

    /// Appends one completed task's result and findings as a single
    /// sealed record, flushed before returning.
    ///
    /// # Errors
    ///
    /// Any filesystem error.
    pub fn append(&mut self, entry: &(TaskResult, Vec<Finding>)) -> Result<(), WireError> {
        let mut record = Vec::new();
        write_sealed_record(entry, &mut record);
        self.file.write_all(&record).map_err(WireError::Io)?;
        self.file.flush().map_err(WireError::Io)?;
        Ok(())
    }
}

/// A parsed checkpoint file.
#[derive(Debug)]
pub struct CheckpointFile {
    /// The campaign key the checkpoint was written under
    /// ([`campaign_key`]); resume refuses a key mismatch.
    pub key: u128,
    /// The shard count the checkpointed campaign was split into.
    pub tasks_total: usize,
    /// Every intact completed-task record, in append order.
    pub entries: Vec<(TaskResult, Vec<Finding>)>,
    /// Whether a truncated trailing record was dropped — the signature of
    /// a coordinator killed mid-append. The intact prefix is still valid.
    pub truncated_tail: bool,
}

/// Reads and parses a checkpoint file. See [`parse_checkpoint`].
///
/// # Errors
///
/// Any filesystem error, plus everything [`parse_checkpoint`] refuses.
pub fn load_checkpoint(path: &Path) -> Result<CheckpointFile, WireError> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(WireError::Io)?;
    parse_checkpoint(&bytes)
}

/// Parses checkpoint bytes: strict about the header and any corruption
/// inside complete records, lenient about exactly one truncated trailing
/// record (a mid-append crash), which is dropped and flagged.
///
/// # Errors
///
/// [`WireError::BadMagic`] / [`WireError::VersionMismatch`] on a foreign
/// or stale header, a [`CodecError`] on a truncated header, and
/// [`WireError::CheckpointCorrupt`] when a complete record fails its seal
/// or does not decode.
pub fn parse_checkpoint(bytes: &[u8]) -> Result<CheckpointFile, WireError> {
    let mut pos = 0usize;
    let magic: [u8; 4] = bytes
        .get(..4)
        .and_then(|m| m.try_into().ok())
        .ok_or(WireError::from(CodecError::UnexpectedEnd))?;
    if magic != CHECKPOINT_MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    pos += 4;
    let version = u64::decode(bytes, &mut pos)?;
    if version != CHECKPOINT_VERSION {
        return Err(WireError::VersionMismatch {
            ours: CHECKPOINT_VERSION,
            theirs: version,
        });
    }
    let protocol = u64::decode(bytes, &mut pos)?;
    if protocol != PROTOCOL_VERSION {
        return Err(WireError::VersionMismatch {
            ours: PROTOCOL_VERSION,
            theirs: protocol,
        });
    }
    let key = u128::decode(bytes, &mut pos)?;
    let tasks_total = usize::decode(bytes, &mut pos)?;
    let (entries, truncated_tail) = read_sealed_records(bytes, pos)
        .map_err(|offset| WireError::CheckpointCorrupt { offset })?;
    Ok(CheckpointFile {
        key,
        tasks_total,
        entries,
        truncated_tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample_entry(id: usize) -> (TaskResult, Vec<Finding>) {
        (
            TaskResult {
                id,
                points_examined: 3 + id,
                points_total: 4,
                activated: 2,
                findings: 0,
                completed: true,
                elapsed: Duration::from_millis(id as u64 * 7),
                states_explored: 100 + id,
                point_workers: 1,
                steals: 0,
                peak_frontier_len: 5,
                peak_frontier_bytes: 640,
                spilled_states: 0,
                memo_hits: 0,
                memo_states_skipped: 0,
                prefix_steps_saved: 0,
            },
            Vec::new(),
        )
    }

    fn write_file(entries: &[(TaskResult, Vec<Finding>)], key: u128, total: usize) -> Vec<u8> {
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "sympl-checkpoint-test-{}-{:x}.bin",
            std::process::id(),
            key as u64
        ));
        let mut w = CheckpointWriter::create(&path, key, total).unwrap();
        for entry in entries {
            w.append(entry).unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        bytes
    }

    #[test]
    fn checkpoints_roundtrip() {
        let entries: Vec<_> = (0..5).map(sample_entry).collect();
        let bytes = write_file(&entries, 0xDEAD_BEEF, 8);
        let file = parse_checkpoint(&bytes).unwrap();
        assert_eq!(file.key, 0xDEAD_BEEF);
        assert_eq!(file.tasks_total, 8);
        assert!(!file.truncated_tail);
        assert_eq!(file.entries, entries);
    }

    #[test]
    fn truncated_tails_drop_only_the_tail() {
        let entries: Vec<_> = (0..4).map(sample_entry).collect();
        let bytes = write_file(&entries, 1, 4);
        // Cut 5 bytes off the end: the last record is truncated, the
        // prefix still loads.
        let file = parse_checkpoint(&bytes[..bytes.len() - 5]).unwrap();
        assert!(file.truncated_tail);
        assert_eq!(file.entries, entries[..3]);
    }

    #[test]
    fn corrupt_records_are_refused() {
        let entries: Vec<_> = (0..3).map(sample_entry).collect();
        let bytes = write_file(&entries, 2, 3);
        // Flip a byte in the middle of the records region.
        let mut corrupt = bytes.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x40;
        let outcome = parse_checkpoint(&corrupt);
        match outcome {
            Err(_) => {}
            Ok(file) => {
                // A flip after the last intact record boundary may read as
                // a truncated tail; intact entries must still be a prefix.
                assert!(file.entries.len() < entries.len() || file.truncated_tail);
                assert_eq!(file.entries[..], entries[..file.entries.len()]);
            }
        }
        // Wrong magic and stale versions are refused outright.
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(
            parse_checkpoint(&wrong_magic),
            Err(WireError::BadMagic(_))
        ));
        let mut header = CHECKPOINT_MAGIC.to_vec();
        (CHECKPOINT_VERSION + 9).encode(&mut header);
        assert!(matches!(
            parse_checkpoint(&header),
            Err(WireError::VersionMismatch { .. })
        ));
    }

    #[test]
    fn a_sealed_record_that_does_not_decode_is_corrupt() {
        let mut bytes = write_file(&[sample_entry(0)], 3, 2);
        let offset = bytes.len();
        // Sealed exactly as the writer seals, but no task result: the seal
        // checks and the payload runs out inside a varint.
        let payload = [0xFFu8; 4];
        let mut h = Fnv128Hasher::new();
        h.write(&payload);
        bytes.push(payload.len() as u8);
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&h.finish128().to_le_bytes());
        assert!(matches!(
            parse_checkpoint(&bytes),
            Err(WireError::CheckpointCorrupt { offset: o }) if o == offset
        ));
    }

    #[test]
    fn empty_checkpoints_are_valid() {
        let bytes = write_file(&[], 7, 12);
        let file = parse_checkpoint(&bytes).unwrap();
        assert_eq!(file.tasks_total, 12);
        assert!(file.entries.is_empty());
        assert!(!file.truncated_tail);
    }

    /// The elastic-fleet resume guarantee: the campaign key is a pure
    /// function of the *job* — program, input, predicate, limits,
    /// budgets, sharding, points. The worker list is not even a
    /// parameter, and no fleet-shaped config field may leak in: a
    /// checkpoint written under one fleet must resume under any other
    /// (different worker count, workers joining late, shards split
    /// mid-run — splits re-merge before checkpointing, so records are
    /// whole shards either way).
    #[test]
    fn campaign_key_is_independent_of_the_fleet() {
        use crate::transport::tests::{deterministic_config, factorial_campaign, factorial_job};
        use sympl_cluster::ClusterConfig;

        let (program, campaign, predicate) = factorial_campaign();
        // The determinism regime: a pinned point-workers share, so the
        // in-process `workers` knob cannot reshape per-point searches.
        let config = |workers: usize| ClusterConfig {
            workers,
            ..deterministic_config(4)
        };
        let job = |config: &ClusterConfig| -> u128 {
            campaign_key(&factorial_job(&program, &campaign, &predicate, config)).unwrap()
        };
        let two = config(2);
        let eight = config(8);
        assert_eq!(
            job(&two),
            job(&eight),
            "worker count must not move the campaign key"
        );
        // Nor may the host: an unset point-workers hint resolves to this
        // host's threads divided by `workers`, which differs between 1
        // and 64 workers on any host with two or more threads.
        for workers in [1, 64] {
            let unpinned = ClusterConfig {
                point_workers_hint: None,
                ..config(workers)
            };
            assert_eq!(
                job(&unpinned),
                job(&two),
                "the host's thread count must not move the campaign key"
            );
        }
        // Stability across repeated derivation (no hidden state).
        assert_eq!(job(&two), job(&two));
        // The key still guards everything outcome-shaping: a different
        // shard count is a different campaign.
        let mut other = config(2);
        other.tasks = 5;
        assert_ne!(job(&two), job(&other));
    }
}
