//! Exhaustive damage sweeps over every decoder that reads bytes from a
//! socket or a file.
//!
//! Instead of sampling corruptions, each sweep enumerates them: every
//! truncation point and every single-bit flip of a real checkpoint
//! (`SYCP`), a real memo store (`SYMO`), and every golden wire frame.
//! A parse may fail with a typed error or return a prefix of what was
//! written; it must never panic and never return a record that was not
//! written. A frame whose count announces 2^40 findings, or whose one
//! finding's state claims 2^40 memory cells, input words or output items,
//! must fail without reserving more than the codec's 64 KiB pre-size bound,
//! and so must every damaged checkpoint and memo store. Random byte strings
//! put to the state decoders — one-shot, a fresh spill-segment decoder and
//! one primed with a keyframe — never panic and stay within that bound.
//!
//! ```text
//! cargo test --release --test codec_sweep
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::time::Duration;

use symplfied::check::{MemoStore, Solution};
use symplfied::cluster::{run_cluster_with_memo, Finding, TaskResult};
use symplfied::machine::{decode_state, encode_state, StateDecoder, StateEncoder};
use symplfied::prelude::*;
use symplfied::symbolic::codec::{encode_u64, Codec};
use symplfied::wire::{decode_message, parse_checkpoint, read_frame, CheckpointWriter, Message};

/// Records the largest single allocation each thread asks for, so a test
/// can bound what one decode reserved while other tests run alongside.
struct LargestAllocation;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every call forwards to `System` unchanged; `note` only updates a
// const-initialised thread-local, which never allocates.
unsafe impl GlobalAlloc for LargestAllocation {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: LargestAllocation = LargestAllocation;

/// Every byte string one bit flip away from `bytes`, for bits at or after
/// byte `from`.
fn bit_flips(bytes: &[u8], from: usize) -> impl Iterator<Item = Vec<u8>> + '_ {
    (from * 8..bytes.len() * 8).map(|bit| {
        let mut flipped = bytes.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        flipped
    })
}

/// A small real campaign (factorial, register-file errors, the first
/// dozen points) run in-process with a memo store attached: its
/// checkpoint entries and the store it filled.
fn real_campaign() -> (Vec<(TaskResult, Vec<Finding>)>, MemoStore) {
    let workload = symplfied::apps::factorial();
    let mut campaign = Campaign::new(&workload.program, ErrorClass::RegisterFile);
    campaign.points.truncate(12);
    let config = ClusterConfig {
        workers: 1,
        tasks: 3,
        search: SearchLimits::with_max_steps(workload.max_steps),
        task_budget: None,
        max_findings_per_task: 2,
        point_workers_hint: Some(1),
    };
    let store = MemoStore::for_campaign(&workload.program, &workload.detectors);
    let report = run_cluster_with_memo(
        &workload.program,
        &workload.detectors,
        &workload.input,
        &campaign,
        &Predicate::OutputContainsErr,
        &config,
        Some(&store),
    );
    let entries = report
        .tasks
        .iter()
        .map(|task| {
            let findings = report.findings.iter().filter(|f| f.task_id == task.id);
            // The process-local cache statistic stays off the wire.
            let task = TaskResult {
                prefix_steps_saved: 0,
                ..task.clone()
            };
            (task, findings.cloned().collect())
        })
        .collect();
    (entries, store)
}

/// The codec's pre-size bound: no decode of damaged or random bytes may
/// reserve more in one allocation.
const PRESIZE_BOUND: usize = 64 << 10;

/// Runs `parse` and asserts that no single allocation it made exceeded
/// [`PRESIZE_BOUND`].
fn within_presize_bound<T>(what: &str, parse: impl FnOnce() -> T) -> T {
    LARGEST.with(|largest| largest.set(0));
    let parsed = parse();
    let largest = LARGEST.with(Cell::get);
    assert!(
        largest <= PRESIZE_BOUND,
        "{what}: one allocation of {largest} bytes"
    );
    parsed
}

fn checkpoint_bytes(entries: &[(TaskResult, Vec<Finding>)]) -> Vec<u8> {
    let path = std::env::temp_dir().join(format!("sympl-sweep-sycp-{}", std::process::id()));
    let mut writer = CheckpointWriter::create(&path, 0xC0FF_EE00_1234, 3).expect("create");
    for entry in entries {
        writer.append(entry).expect("append");
    }
    drop(writer);
    let bytes = std::fs::read(&path).expect("read checkpoint back");
    let _ = std::fs::remove_file(&path);
    bytes
}

#[test]
fn every_truncation_and_bit_flip_of_a_checkpoint_parses_to_a_prefix_or_a_typed_error() {
    let (entries, _) = real_campaign();
    assert!(
        entries.iter().any(|(_, findings)| !findings.is_empty()),
        "the sweep needs records that carry states"
    );
    let bytes = checkpoint_bytes(&entries);
    let header_len = checkpoint_bytes(&[]).len();
    let full = parse_checkpoint(&bytes).expect("the written checkpoint parses");
    assert_eq!(full.entries, entries);

    let check = |damaged: &[u8]| {
        if let Ok(file) = within_presize_bound("checkpoint", || parse_checkpoint(damaged)) {
            assert_eq!(file.entries[..], entries[..file.entries.len()]);
        }
    };
    for cut in 0..bytes.len() {
        check(&bytes[..cut]);
    }
    for damaged in bit_flips(&bytes, header_len) {
        check(&damaged);
    }
}

#[test]
fn every_truncation_and_bit_flip_of_a_memo_store_parses_to_a_prefix_or_a_typed_error() {
    let (_, store) = real_campaign();
    assert!(store.len() >= 2, "the sweep needs several records");
    let bytes = store.to_bytes();
    let header_len = MemoStore::new(store.key()).to_bytes().len();

    // Records are written sorted by probe digest, so a store holding a
    // prefix of the records re-serializes to a prefix of the file.
    let check = |damaged: &[u8]| {
        if let Ok((loaded, _)) =
            within_presize_bound("memo store", || MemoStore::parse(damaged, None))
        {
            assert!(bytes.starts_with(&loaded.to_bytes()));
        }
    };
    for cut in 0..bytes.len() {
        check(&bytes[..cut]);
    }
    for damaged in bit_flips(&bytes, header_len) {
        check(&damaged);
    }
}

fn golden_frame_payloads() -> Vec<(String, Vec<u8>)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/wire_golden");
    let mut frames: Vec<_> = std::fs::read_dir(&dir)
        .expect("golden vector directory")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.to_string_lossy().ends_with("_frame.bin"))
        .map(|path| {
            let framed = std::fs::read(&path).expect("golden frame");
            let payload = read_frame(&mut framed.as_slice()).expect("golden frames are framed");
            (path.display().to_string(), payload)
        })
        .collect();
    frames.sort();
    frames
}

#[test]
fn every_truncation_and_bit_flip_of_every_golden_frame_decodes_or_errs() {
    let frames = golden_frame_payloads();
    assert!(frames.len() >= 10, "found {} golden frames", frames.len());
    for (name, payload) in &frames {
        assert!(decode_message(payload).is_ok(), "{name} decodes intact");
        for cut in 0..payload.len() {
            assert!(
                decode_message(&payload[..cut]).is_err(),
                "{name} cut at {cut}"
            );
        }
        for damaged in bit_flips(payload, 0) {
            let _ = decode_message(&damaged);
        }
    }
}

fn small_result() -> TaskResult {
    TaskResult {
        id: 1,
        points_examined: 1,
        points_total: 1,
        activated: 1,
        findings: 0,
        completed: true,
        elapsed: Duration::from_millis(3),
        states_explored: 10,
        point_workers: 1,
        steals: 0,
        peak_frontier_len: 1,
        peak_frontier_bytes: 64,
        spilled_states: 0,
        memo_hits: 0,
        memo_states_skipped: 0,
        prefix_steps_saved: 0,
    }
}

/// Decodes `payload` as a message, which must fail, and returns the
/// largest single allocation the decode made.
fn largest_allocation_of_a_failed_decode(payload: &[u8]) -> usize {
    LARGEST.with(|largest| largest.set(0));
    let decoded = decode_message(payload);
    let largest = LARGEST.with(Cell::get);
    assert!(decoded.is_err());
    largest
}

#[test]
fn a_frame_announcing_two_to_the_forty_findings_fails_within_the_presize_bound() {
    let mut payload = Vec::new();
    Message::TaskDone {
        result: small_result(),
        findings: Vec::new(),
    }
    .encode(&mut payload);
    assert_eq!(
        payload.pop(),
        Some(0),
        "the payload ends with the finding count"
    );
    encode_u64(1 << 40, &mut payload);
    payload.extend_from_slice(&[0xFF; 8]);

    let largest = largest_allocation_of_a_failed_decode(&payload);
    assert!(
        largest <= 64 << 10,
        "decoding reserved {largest} bytes for findings it never read"
    );
}

/// A `TaskDone` frame with one finding whose state record claims 2^40
/// elements in the section whose count is byte `at` of a fresh state's
/// record, followed by eight bytes of an unfinished varint.
fn a_finding_claiming_two_to_the_forty(at: usize) -> Vec<u8> {
    let mut fresh = Vec::new();
    encode_state(&MachineState::new(), &mut fresh);
    // The header (version, pc, steps, status), then one zero count each
    // for the registers, the memory image, the input, the input cursor,
    // the output and the constraint map.
    assert_eq!(fresh.len(), 10);

    let mut payload = Vec::new();
    Message::TaskDone {
        result: small_result(),
        findings: vec![Finding {
            task_id: 1,
            point: InjectionPoint::new(0, InjectTarget::Register(Reg::r(4))),
            solution: Solution {
                state: MachineState::new(),
                trace: Vec::new(),
            },
        }],
    }
    .encode(&mut payload);
    // The finding's state is followed only by its empty trace's count.
    assert!(payload.ends_with(&[&fresh[..], &[0]].concat()));
    payload.truncate(payload.len() - fresh.len() - 1);
    payload.extend_from_slice(&fresh[..at]);
    encode_u64(1 << 40, &mut payload);
    payload.extend_from_slice(&[0xFF; 8]);
    payload
}

#[test]
fn a_finding_whose_state_claims_two_to_the_forty_memory_cells_fails_within_the_presize_bound() {
    let largest = largest_allocation_of_a_failed_decode(&a_finding_claiming_two_to_the_forty(5));
    assert!(
        largest <= 64 << 10,
        "decoding reserved {largest} bytes for memory cells it never read"
    );
}

#[test]
fn a_finding_whose_state_claims_two_to_the_forty_input_words_fails_within_the_presize_bound() {
    let largest = largest_allocation_of_a_failed_decode(&a_finding_claiming_two_to_the_forty(6));
    assert!(
        largest <= 64 << 10,
        "decoding reserved {largest} bytes for input words it never read"
    );
}

#[test]
fn a_finding_whose_state_claims_two_to_the_forty_output_items_fails_within_the_presize_bound() {
    let largest = largest_allocation_of_a_failed_decode(&a_finding_claiming_two_to_the_forty(8));
    assert!(
        largest <= 64 << 10,
        "decoding reserved {largest} bytes for output items it never read"
    );
}

/// A state with every encoded component, as a segment's keyframe.
fn keyframe_state() -> MachineState {
    let mut s = MachineState::with_input(vec![4, -2, 9]);
    let _ = s.read_input();
    s.set_pc(12);
    s.set_reg(Reg::r(3), Value::Err);
    s.set_reg(Reg::r(27), Value::Int(-77));
    s.load_memory((0..48).map(|i| (i * 8, i as i64 - 20)));
    let _ = s
        .constraints_mut()
        .constrain(Location::reg(3), Constraint::Gt(1));
    s.push_output(OutItem::Val(Value::Int(5)));
    s.push_output(OutItem::Str("ok".into()));
    s
}

#[test]
fn random_bytes_never_panic_a_state_decoder_or_reserve_past_the_presize_bound() {
    // A segment of two records: the keyframe, then a delta record that
    // rewrites every component, so its sections are all present.
    let first = keyframe_state();
    let mut second = first.clone();
    second.set_reg(Reg::r(5), Value::Int(1));
    second.set_mem(4096, Value::Err);
    let _ = second.read_input();
    second.push_output(OutItem::Val(Value::Err));
    let _ = second
        .constraints_mut()
        .constrain(Location::Mem(0), Constraint::Ne(3));
    let mut encoder = StateEncoder::default();
    let (mut keyframe, mut delta) = (Vec::new(), Vec::new());
    encoder.encode(first, &mut keyframe);
    encoder.encode(second, &mut delta);
    let mut primed = StateDecoder::default();
    primed.decode(&keyframe).expect("a keyframe decodes");
    assert!(
        primed.clone().decode(&delta).is_ok(),
        "a delta record decodes"
    );

    // splitmix64: a fixed, dependency-free byte source.
    let mut seed = 0x5EED_u64;
    let mut next = || {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in 0..6000 {
        // Random bytes, alone or after a prefix of a real keyframe or
        // delta record, so the decoders reach every section's count.
        let prefix: &[u8] = match i % 3 {
            0 => &[],
            1 => &keyframe[..(next() as usize) % keyframe.len()],
            _ => &delta[..(next() as usize) % delta.len()],
        };
        let len = (next() % 1024) as usize;
        let mut bytes = prefix.to_vec();
        bytes.extend((prefix.len()..len).map(|_| next() as u8));
        let _ = within_presize_bound("decode_state", || decode_state(&bytes));
        let _ = within_presize_bound("a fresh decoder", || StateDecoder::default().decode(&bytes));
        let mut decoder = primed.clone();
        let _ = within_presize_bound("a primed decoder", || decoder.decode(&bytes));
    }
}
