//! Cross-campaign memoization: a fingerprint-keyed store of
//! subtree-outcome summaries.
//!
//! An injection campaign explores thousands of near-identical state
//! spaces: every point shares the error-free prefix before its injection
//! PC, and most post-injection subtrees reconverge onto states an earlier
//! point already swept. The [`MemoStore`] removes that redundancy at the
//! granularity the explorer can do it *soundly*: one entry per **whole
//! search**, keyed by the search's complete identity, replayed verbatim
//! on a later identical search.
//!
//! ## Why whole searches, not individual states
//!
//! Per-state subtree summaries are not context-free under fingerprint
//! deduplication: when two paths converge, the shared suffix is counted
//! once *globally*, so "the subtree below state S" depends on which other
//! states the same search already visited. Folding such a summary into a
//! different search would double-count (or drop) shared states and break
//! the campaign's `outcome_digest`. A *whole search from its seed set*,
//! by contrast, is a closed world: its statistics, terminal counts, and
//! solution set are a pure function of (program, detectors, seeds,
//! predicate, limits, engine shape). Per-point searches are exactly the
//! subtrees of a campaign — the seed set is the injected state — so a
//! warm store serves every re-checked point from its recorded summary
//! without expanding a single state.
//!
//! ## Two-level keying
//!
//! * The **store key** ([`memo_key`]) is an FNV-128 digest of the program
//!   listing and the detector set: the identity of the transition system.
//!   It is stamped into the [`SYMO` file header](#file-format); loading a
//!   store against an edited program is refused as
//!   [`MemoError::StaleKey`], which is what makes re-checking
//!   *incremental* — a program edit invalidates the whole store
//!   conservatively instead of mis-serving.
//! * The **probe digest** ([`probe_digest`]) identifies one search within
//!   that system: the encoded predicate, the effective [`SearchLimits`]
//!   (including the frontier policy), and the ordered seed fingerprints.
//!   Any configuration change lands on a different digest and
//!   conservatively misses.
//!
//! Closure-backed [`Predicate::Custom`] searches have no encodable
//! identity; [`probe_digest`] returns `None` and the explorer bypasses the
//! store entirely rather than risk serving a wrong entry.
//!
//! ## Soundness gates
//!
//! An entry is sound exactly when the recorded report is a
//! *deterministic function of its probe digest* — a later identical
//! search would have reproduced it bit for bit. The explorer's traversal
//! is fully deterministic, so it records any report that did not hit its
//! wall-clock cap: even a state- or solution-capped report truncates at
//! the same state on every run; only *where a wall clock fires* is not a
//! function of the search's identity.
//!
//! Campaign layers add their own gate
//! (`sympl_cluster::memo_preserves_outcome`) mirroring
//! `split_preserves_outcome`: no wall-clock task budget (the per-point
//! `max_time` would depend on elapsed time). A served report replays the
//! stored `states_explored`, terminal counts, solutions, truncation
//! flags, and frontier peaks verbatim, so a memoized campaign's
//! `outcome_digest` equals the memo-off run's; the saved work is visible
//! only through [`SearchReport::memo_hits`] /
//! [`SearchReport::memo_states_skipped`].
//!
//! ## File format
//!
//! Persistence is the `SYMO` format: the `b"SYMO"` magic, then
//! [`MEMO_VERSION`] and the store key, then one sealed record
//! (`sympl_symbolic::codec::write_sealed_record`, the stream the `SYCP`
//! checkpoint uses too) per entry, sorted by probe digest
//! (byte-identical stores from equal contents). The header is strict;
//! the records are sealed by FNV-128, and exactly one truncated trailing
//! record is dropped. The normative byte layout lives in
//! **`docs/PROTOCOL.md`** (§3) at the repository root, next to the wire
//! and checkpoint specs.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hasher as _;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use sympl_asm::Program;
use sympl_detect::DetectorSet;
use sympl_machine::MachineState;
use sympl_symbolic::codec::{read_sealed_records, write_sealed_record, Codec, CodecError};
use sympl_symbolic::{codec_record, Fnv128Hasher};

use crate::codec::encode_predicate;
use crate::{OutcomeCounts, Predicate, SearchLimits, SearchReport, Solution};

/// The four bytes every memo store file opens with.
pub const MEMO_MAGIC: [u8; 4] = *b"SYMO";

/// The store container-format revision.
pub const MEMO_VERSION: u64 = 1;

/// Lock shards: probes from concurrent point searches land on different
/// mutexes with high probability.
const SHARDS: usize = 16;

/// The FNV-128 digest identifying the transition system a store describes:
/// the program (by its canonical listing) and the detector set (by its
/// round-tripping `Display` form). A store persisted under one key is
/// refused under any other — the conservative invalidation that makes
/// re-checking after a program edit safe.
#[must_use]
pub fn memo_key(program: &Program, detectors: &DetectorSet) -> u128 {
    let mut h = Fnv128Hasher::new();
    let listing = program.listing();
    h.write_usize(listing.len());
    h.write(listing.as_bytes());
    let dets = detectors.to_string();
    h.write_usize(dets.len());
    h.write(dets.as_bytes());
    h.finish128()
}

/// The FNV-128 digest identifying one search within a store's transition
/// system: encoded predicate, effective search limits (with the engine's
/// effective frontier `policy` substituted in), and the ordered seed
/// fingerprints. Returns `None` for closure-backed [`Predicate::Custom`]
/// searches, whose identity cannot be encoded — the explorer then
/// bypasses the store.
#[must_use]
pub fn probe_digest(
    predicate: &Predicate,
    limits: &SearchLimits,
    policy: crate::FrontierPolicy,
    seeds: &[MachineState],
) -> Option<u128> {
    let mut buf = Vec::with_capacity(64);
    encode_predicate(predicate, &mut buf).ok()?;
    let effective = SearchLimits {
        policy,
        ..limits.clone()
    };
    effective.encode(&mut buf);
    // An engine-width slot, always 1: stores on disk were keyed with it,
    // and dropping it would make every one of their entries miss.
    1usize.encode(&mut buf);
    seeds.len().encode(&mut buf);
    let mut h = Fnv128Hasher::new();
    h.write(&buf);
    for seed in seeds {
        h.write_u128(seed.fingerprint().0);
    }
    Some(h.finish128())
}

/// The outcome summary of one recorded search: everything needed to
/// replay its [`SearchReport`] without re-expanding the subtree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubtreeSummary {
    /// States the recorded search expanded.
    pub states_explored: usize,
    /// Successors the recorded search deduplicated away.
    pub duplicate_hits: usize,
    /// Terminal states by outcome class.
    pub terminals: OutcomeCounts,
    /// The predicate-matching terminals, with witness traces.
    pub solutions: Vec<Solution>,
    /// Deepest terminal reached, in execution steps beyond the shallowest
    /// seed — the recorded subtree's depth.
    pub max_depth: u64,
    /// Frontier peak (states) of the recorded search.
    pub peak_frontier_len: usize,
    /// Frontier peak (approximate in-RAM bytes) of the recorded search.
    pub peak_frontier_bytes: usize,
    /// States the recorded search pushed past its RAM window, stored or
    /// not (see [`SearchReport::spilled_states`]).
    pub spilled_states: usize,
    /// Worker threads of the recording engine: always 1, kept so SYMO
    /// record bytes do not move.
    pub workers: usize,
    /// Work-steal count of the recording engine: always 0, kept so SYMO
    /// record bytes do not move.
    pub steals: usize,
    /// Whether the recorded search drained its frontier. Sequential
    /// searches truncated by a *deterministic* budget (state or solution
    /// cap) are recordable too — same seeds + same limits reproduce the
    /// same truncation — so a summary replays the flag instead of
    /// assuming exhaustion.
    pub exhausted: bool,
    /// Whether the recorded search stopped at its state cap.
    pub hit_state_cap: bool,
    /// Whether the recorded search stopped at its solution cap.
    pub hit_solution_cap: bool,
}

impl SubtreeSummary {
    /// Captures a search's report as a storable summary.
    ///
    /// # Panics
    ///
    /// When the report hit its wall-clock cap — a time-truncated search is
    /// not a deterministic function of its probe digest (the same search
    /// on a slower machine truncates elsewhere) and must never enter the
    /// store. State- and solution-capped reports are fine: the explorer's
    /// traversal is reproducible, so they truncate at the same state on
    /// every identical search.
    #[must_use]
    pub fn from_report(report: &SearchReport, max_depth: u64) -> Self {
        assert!(
            !report.hit_time_cap,
            "time-capped searches are not memoizable; where a wall clock truncates is not \
             a function of the search's identity"
        );
        SubtreeSummary {
            states_explored: report.states_explored,
            duplicate_hits: report.duplicate_hits,
            terminals: report.terminals,
            solutions: report.solutions.clone(),
            max_depth,
            peak_frontier_len: report.peak_frontier_len,
            peak_frontier_bytes: report.peak_frontier_bytes,
            spilled_states: report.spilled_states,
            workers: report.workers,
            steals: report.steals,
            exhausted: report.exhausted,
            hit_state_cap: report.hit_state_cap,
            hit_solution_cap: report.hit_solution_cap,
        }
    }

    /// Replays the summary as a served [`SearchReport`]: every statistic
    /// and truncation flag of the recorded search verbatim, `memo_hits` =
    /// 1, and the whole recorded expansion claimed as skipped work.
    /// Elapsed time and throughput are zero — the serve itself is O(1).
    #[must_use]
    pub fn to_report(&self) -> SearchReport {
        SearchReport {
            solutions: self.solutions.clone(),
            states_explored: self.states_explored,
            terminals: self.terminals,
            duplicate_hits: self.duplicate_hits,
            exhausted: self.exhausted,
            hit_state_cap: self.hit_state_cap,
            hit_solution_cap: self.hit_solution_cap,
            hit_time_cap: false,
            elapsed: std::time::Duration::ZERO,
            states_per_second: 0.0,
            workers: self.workers,
            steals: self.steals,
            peak_frontier_len: self.peak_frontier_len,
            peak_frontier_bytes: self.peak_frontier_bytes,
            spilled_states: self.spilled_states,
            memo_hits: 1,
            memo_states_skipped: self.states_explored,
        }
    }
}

codec_record! {
    struct SubtreeSummary {
        states_explored, duplicate_hits, max_depth, peak_frontier_len, peak_frontier_bytes,
        spilled_states, workers, steals, exhausted, hit_state_cap, hit_solution_cap, terminals,
        solutions,
    }
}

/// A store load/parse failure.
#[derive(Debug)]
pub enum MemoError {
    /// A filesystem error.
    Io(std::io::Error),
    /// The file does not open with [`MEMO_MAGIC`].
    BadMagic([u8; 4]),
    /// The file's container version is not [`MEMO_VERSION`].
    VersionMismatch {
        /// The version this build writes.
        ours: u64,
        /// The version found in the file.
        theirs: u64,
    },
    /// The store was written for a different program/detector set and is
    /// refused rather than mis-served (the incremental-re-checking gate).
    StaleKey {
        /// The key the caller derived from its program + detectors.
        expected: u128,
        /// The key stamped in the file header.
        found: u128,
    },
    /// A complete record failed its digest check or decoded to garbage.
    Corrupt {
        /// Byte offset of the offending record.
        offset: usize,
    },
    /// The header itself is malformed.
    Codec(CodecError),
}

impl fmt::Display for MemoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoError::Io(e) => write!(f, "memo store i/o error: {e}"),
            MemoError::BadMagic(m) => write!(f, "not a memo store (magic {m:02x?})"),
            MemoError::VersionMismatch { ours, theirs } => {
                write!(f, "memo store version {theirs} (this build reads {ours})")
            }
            MemoError::StaleKey { expected, found } => write!(
                f,
                "stale memo store: written for key {found:032x}, this campaign is {expected:032x} \
                 (program or detectors changed)"
            ),
            MemoError::Corrupt { offset } => {
                write!(f, "memo store corrupt at byte offset {offset}")
            }
            MemoError::Codec(e) => write!(f, "memo store header: {e}"),
        }
    }
}

impl std::error::Error for MemoError {}

impl From<CodecError> for MemoError {
    fn from(e: CodecError) -> Self {
        MemoError::Codec(e)
    }
}

impl From<std::io::Error> for MemoError {
    fn from(e: std::io::Error) -> Self {
        MemoError::Io(e)
    }
}

/// A concurrent, sharded map from probe digest to subtree-outcome
/// summary, shared by every engine in a campaign (and, via
/// [`MemoStore::save`] / [`MemoStore::load`], across campaigns).
///
/// Interior mutability throughout: engines hold `&MemoStore` and campaigns
/// share one store across worker threads behind an `Arc`.
#[derive(Debug)]
pub struct MemoStore {
    key: u128,
    shards: [Mutex<HashMap<u128, SubtreeSummary>>; SHARDS],
    hits: AtomicUsize,
    misses: AtomicUsize,
    inserts: AtomicUsize,
    states_skipped: AtomicUsize,
}

impl MemoStore {
    /// An empty store under an explicit key.
    #[must_use]
    pub fn new(key: u128) -> Self {
        MemoStore {
            key,
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            inserts: AtomicUsize::new(0),
            states_skipped: AtomicUsize::new(0),
        }
    }

    /// An empty store keyed for one program + detector set
    /// (see [`memo_key`]).
    #[must_use]
    pub fn for_campaign(program: &Program, detectors: &DetectorSet) -> Self {
        MemoStore::new(memo_key(program, detectors))
    }

    /// The store key (program + detector identity).
    #[must_use]
    pub fn key(&self) -> u128 {
        self.key
    }

    fn shard_of(&self, digest: u128) -> &Mutex<HashMap<u128, SubtreeSummary>> {
        &self.shards[(digest as usize) % SHARDS]
    }

    /// Serves a search from the store: on a hit, the replayed
    /// [`SearchReport`] (see [`SubtreeSummary::to_report`]); on a miss,
    /// `None`. Both update the hit/miss counters.
    #[must_use]
    pub fn serve(&self, digest: u128) -> Option<SearchReport> {
        let shard = self.shard_of(digest).lock().expect("memo shard poisoned");
        match shard.get(&digest) {
            Some(summary) => {
                let report = summary.to_report();
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.states_skipped
                    .fetch_add(report.memo_states_skipped, Ordering::Relaxed);
                Some(report)
            }
            None => {
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Records a search's summary under its probe digest.
    /// First writer wins; identical-key re-records are no-ops (the summary
    /// is a pure function of the digest's preimage, so any concurrent
    /// writers carry equal values).
    pub fn record(&self, digest: u128, summary: SubtreeSummary) {
        let mut shard = self.shard_of(digest).lock().expect("memo shard poisoned");
        if let std::collections::hash_map::Entry::Vacant(slot) = shard.entry(digest) {
            slot.insert(summary);
            drop(shard);
            self.inserts.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Entries in the store.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("memo shard poisoned").len())
            .sum()
    }

    /// Whether the store holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Searches answered from the store so far.
    #[must_use]
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Probes that found no entry.
    #[must_use]
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries recorded (first-writer insertions, not re-records).
    #[must_use]
    pub fn inserts(&self) -> usize {
        self.inserts.load(Ordering::Relaxed)
    }

    /// Total states served without expansion across all hits.
    #[must_use]
    pub fn states_skipped(&self) -> usize {
        self.states_skipped.load(Ordering::Relaxed)
    }

    /// Serializes the store in the `SYMO` format (see the module docs).
    /// Records are sorted by probe digest, so equal contents produce
    /// byte-identical files.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut entries: Vec<(u128, SubtreeSummary)> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .expect("memo shard poisoned")
                    .iter()
                    .map(|(d, v)| (*d, v.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        entries.sort_by_key(|(d, _)| *d);
        let mut out = Vec::with_capacity(64 + entries.len() * 64);
        out.extend_from_slice(&MEMO_MAGIC);
        MEMO_VERSION.encode(&mut out);
        self.key.encode(&mut out);
        for entry in &entries {
            write_sealed_record(entry, &mut out);
        }
        out
    }

    /// Writes the store to `path` (whole-file rewrite; see
    /// [`MemoStore::to_bytes`]).
    ///
    /// # Errors
    ///
    /// Any filesystem error.
    pub fn save(&self, path: &Path) -> Result<(), std::io::Error> {
        std::fs::write(path, self.to_bytes())
    }

    /// Reads and parses a store file. See [`MemoStore::parse`].
    ///
    /// # Errors
    ///
    /// [`MemoError::Io`] on filesystem errors, plus everything
    /// [`MemoStore::parse`] refuses.
    pub fn load(path: &Path, expected_key: Option<u128>) -> Result<(MemoStore, bool), MemoError> {
        let bytes = std::fs::read(path)?;
        MemoStore::parse(&bytes, expected_key)
    }

    /// Parses store bytes: strict about the header (magic, version, and —
    /// when `expected_key` is given — the store key) and about corruption
    /// inside complete records; lenient about exactly one truncated
    /// trailing record, which is dropped and flagged in the returned bool.
    ///
    /// # Errors
    ///
    /// [`MemoError::BadMagic`] / [`MemoError::VersionMismatch`] /
    /// [`MemoError::StaleKey`] on a foreign, stale, or mismatched header;
    /// [`MemoError::Corrupt`] when a complete record fails its digest
    /// check or decodes to garbage.
    pub fn parse(bytes: &[u8], expected_key: Option<u128>) -> Result<(MemoStore, bool), MemoError> {
        let mut pos = 0usize;
        let magic: [u8; 4] = bytes
            .get(..4)
            .and_then(|m| m.try_into().ok())
            .ok_or(MemoError::Codec(CodecError::UnexpectedEnd))?;
        if magic != MEMO_MAGIC {
            return Err(MemoError::BadMagic(magic));
        }
        pos += 4;
        let version = u64::decode(bytes, &mut pos)?;
        if version != MEMO_VERSION {
            return Err(MemoError::VersionMismatch {
                ours: MEMO_VERSION,
                theirs: version,
            });
        }
        let key = u128::decode(bytes, &mut pos)?;
        if let Some(expected) = expected_key {
            if key != expected {
                return Err(MemoError::StaleKey {
                    expected,
                    found: key,
                });
            }
        }
        let (records, truncated_tail) = read_sealed_records::<(u128, SubtreeSummary)>(bytes, pos)
            .map_err(|offset| MemoError::Corrupt { offset })?;
        let store = MemoStore::new(key);
        for (probe, summary) in records {
            store.record(probe, summary);
        }
        Ok((store, truncated_tail))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympl_asm::parse_program;

    fn summary(states: usize) -> SubtreeSummary {
        SubtreeSummary {
            states_explored: states,
            duplicate_hits: 3,
            terminals: OutcomeCounts {
                halted: 2,
                crashed: 1,
                hung: 0,
                detected: 4,
            },
            solutions: vec![Solution {
                state: MachineState::with_input(vec![1, 2]),
                trace: vec![0, 1, 2],
            }],
            max_depth: 17,
            peak_frontier_len: 9,
            peak_frontier_bytes: 1024,
            spilled_states: 0,
            workers: 1,
            steals: 0,
            exhausted: true,
            hit_state_cap: false,
            hit_solution_cap: false,
        }
    }

    #[test]
    fn store_roundtrips_through_bytes() {
        let store = MemoStore::new(0xFEED_F00D);
        store.record(1, summary(10));
        store.record(2, summary(20));
        store.record(0xFFFF_FFFF_FFFF_FFFF_FFFF, summary(30));
        let bytes = store.to_bytes();
        let (loaded, truncated) = MemoStore::parse(&bytes, Some(0xFEED_F00D)).unwrap();
        assert!(!truncated);
        assert_eq!(loaded.key(), 0xFEED_F00D);
        assert_eq!(loaded.len(), 3);
        let served = loaded.serve(2).unwrap();
        assert_eq!(served.states_explored, 20);
        assert_eq!(served.memo_hits, 1);
        assert_eq!(served.memo_states_skipped, 20);
        assert!(served.exhausted);
        assert_eq!(served.solutions.len(), 1);
        // Deterministic serialization: equal contents, equal bytes.
        assert_eq!(bytes, loaded.to_bytes());
    }

    #[test]
    fn truncation_flags_roundtrip_through_bytes() {
        let store = MemoStore::new(5);
        let mut capped = summary(11);
        capped.exhausted = false;
        capped.hit_state_cap = true;
        store.record(9, capped);
        let (loaded, _) = MemoStore::parse(&store.to_bytes(), Some(5)).unwrap();
        let served = loaded.serve(9).unwrap();
        assert!(!served.exhausted);
        assert!(served.hit_state_cap);
        assert!(!served.hit_solution_cap);
        assert!(!served.hit_time_cap);
    }

    #[test]
    fn stale_keys_and_foreign_files_are_refused() {
        let store = MemoStore::new(7);
        store.record(1, summary(10));
        let bytes = store.to_bytes();
        assert!(matches!(
            MemoStore::parse(&bytes, Some(8)),
            Err(MemoError::StaleKey {
                expected: 8,
                found: 7
            })
        ));
        // No expected key: any header key loads (format-level tooling).
        assert!(MemoStore::parse(&bytes, None).is_ok());
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert!(matches!(
            MemoStore::parse(&wrong, None),
            Err(MemoError::BadMagic(_))
        ));
        let mut header = MEMO_MAGIC.to_vec();
        (MEMO_VERSION + 3).encode(&mut header);
        assert!(matches!(
            MemoStore::parse(&header, None),
            Err(MemoError::VersionMismatch { .. })
        ));
    }

    #[test]
    fn truncated_tails_drop_only_the_tail() {
        let store = MemoStore::new(1);
        for d in 0..4u128 {
            store.record(d, summary(10 + d as usize));
        }
        let bytes = store.to_bytes();
        let (loaded, truncated) = MemoStore::parse(&bytes[..bytes.len() - 5], None).unwrap();
        assert!(truncated);
        assert_eq!(loaded.len(), 3);
    }

    #[test]
    fn corrupt_records_are_refused() {
        let store = MemoStore::new(1);
        store.record(1, summary(10));
        store.record(2, summary(20));
        let bytes = store.to_bytes();
        let mut corrupt = bytes.clone();
        let mid = (bytes.len() + 12) / 2; // inside the records region
        corrupt[mid] ^= 0x40;
        match MemoStore::parse(&corrupt, None) {
            Err(MemoError::Corrupt { .. }) => {}
            Ok((loaded, truncated)) => {
                // A flip after the last intact record boundary may read as
                // a truncated tail; intact entries must still load.
                assert!(loaded.len() < 2 || truncated);
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    #[test]
    fn memo_key_tracks_program_and_detectors() {
        let a = parse_program("read $1\nprint $1\nhalt").unwrap();
        let b = parse_program("read $1\nprint $1\nnop\nhalt").unwrap();
        let none = DetectorSet::new();
        let mut some = DetectorSet::new();
        some.insert(sympl_detect::Detector::parse("det(1, $(1), ==, (7))").unwrap());
        assert_eq!(memo_key(&a, &none), memo_key(&a, &none));
        assert_ne!(memo_key(&a, &none), memo_key(&b, &none));
        assert_ne!(memo_key(&a, &none), memo_key(&a, &some));
    }

    #[test]
    fn probe_digest_tracks_the_search_identity() {
        use crate::FrontierPolicy::{Bfs, Dfs};
        let seeds = vec![MachineState::with_input(vec![1])];
        let limits = SearchLimits::default();
        let base = probe_digest(&Predicate::Any, &limits, Bfs, &seeds).unwrap();
        // Pinned: stores on disk carry this digest for this search, and a
        // moved digest would make every one of their entries miss.
        assert_eq!(base, 0x0a3e_197a_9eb9_c3ca_ad7f_49fb_0896_f4a8);
        // Every identity component moves the digest.
        let other_pred = probe_digest(&Predicate::Crashed, &limits, Bfs, &seeds).unwrap();
        assert_ne!(base, other_pred);
        let tighter = SearchLimits {
            max_solutions: 3,
            ..SearchLimits::default()
        };
        assert_ne!(
            base,
            probe_digest(&Predicate::Any, &tighter, Bfs, &seeds).unwrap()
        );
        assert_ne!(
            base,
            probe_digest(&Predicate::Any, &limits, Dfs, &seeds).unwrap()
        );
        let other_seeds = vec![MachineState::with_input(vec![2])];
        assert_ne!(
            base,
            probe_digest(&Predicate::Any, &limits, Bfs, &other_seeds).unwrap()
        );
        // Custom predicates have no encodable identity: memo bypassed.
        assert!(probe_digest(&Predicate::custom(|_| true), &limits, Bfs, &seeds).is_none());
    }

    #[test]
    fn counters_track_serves_and_records() {
        let store = MemoStore::new(0);
        assert!(store.serve(1).is_none());
        assert_eq!(store.misses(), 1);
        store.record(1, summary(42));
        store.record(1, summary(42)); // re-record: no-op
        assert_eq!(store.inserts(), 1);
        assert_eq!(store.len(), 1);
        let _ = store.serve(1).unwrap();
        assert_eq!(store.hits(), 1);
        assert_eq!(store.states_skipped(), 42);
    }
}
