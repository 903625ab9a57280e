//! A compact, self-describing binary codec for [`MachineState`].
//!
//! [`encode_state`] serializes everything state equality observes —
//! program counter, watchdog counter, status, non-zero registers, the
//! copy-on-write memory image, I/O streams, and the constraint
//! map — into a varint-packed byte stream; [`decode_state`] rebuilds a
//! live state whose **rolling fingerprint caches are re-derived from the
//! decoded content**, so a decoded state's `fingerprint()` equals its
//! `fingerprint_from_scratch()` (and the original's) by construction.
//!
//! The format rides on the leaf encoders in `sympl_symbolic::codec`
//! (varints, values, locations, constraint sets/maps) and adds the
//! machine-level framing:
//!
//! ```text
//! version:u8  pc:varint  steps:varint  status:tag[payload]
//! regs:   count, (index:u8, value)*            — non-zero cells only, index 1..32
//! mem:    count, first-addr, (addr-delta, value)*  — ascending, delta-coded
//! input:  count, zigzag*, cursor:varint
//! output: count, (0 value | 1 len utf8-bytes)*
//! constraints: sympl_symbolic::codec map encoding
//! ```
//!
//! Every record is length-free and self-delimiting, so states can be
//! concatenated and decoded back one at a time ([`decode_state`] returns
//! the bytes consumed). The one-shot [`encode_state`] and
//! [`decode_state`] keep no context: each record stands alone, and each
//! state decoded from one owns its register file, memory image, input,
//! output stream and constraint map. The same bytes are
//! [`MachineState`]'s [`Codec`] record, which is how a state rides inside
//! wire frames, checkpoints and memo stores; [`ExecLimits`] is declared
//! here as a record too.
//!
//! # Spill streams
//!
//! A disk-spilling frontier writes a segment of states through a
//! [`StateEncoder`] and reads it back through a [`StateDecoder`]. A
//! segment is a *keyframe* — the one-shot record above, which decodes
//! alone — followed by *delta records*, each written against the record
//! before it:
//!
//! ```text
//! pc:varint  steps:varint  status:tag[payload]  cursor:varint
//! same:u8   — bit 0 memory, 1 input, 2 output, 3 constraints: equal to the previous record's
//! regs:     count, (index:u8, value)*  — the registers that differ from the previous record's, ascending
//! mem, input (without its cursor), output, constraints — each whose bit is clear, as in the one-shot record
//! check:u32 — FNV-1a over the record's bytes before it, little-endian
//! ```
//!
//! A component is the previous record's when it is the same allocation or
//! has equal content (unequal folds tell them apart in O(1)); the decoder
//! then hands the state its kept component, shared, with its fold. A
//! differing register or output cell moves the kept fold. Consecutive
//! forks of one parent — what a frontier spills — differ in a register or
//! two, so their delta records take a few bytes each. The check refuses a
//! damaged delta record: it takes one FNV-1a round per 4-byte word (then
//! per trailing byte), each a bijection on its 32 bits, so every
//! single-bit flip of the record's bytes changes it.
//!
//! **Reset contract.** Both sides keep the previous record's state, so a
//! delta record decodes only after every record before it in its segment,
//! in write order. The frontier calls [`StateEncoder::reset`] before it
//! writes a segment's first record and [`StateDecoder::reset`] before it
//! reads one back: each segment then starts with a keyframe and decodes
//! alone, whatever order segments are written, replayed or truncated in.
//! A decode that fails leaves the decoder's context as it was.

use std::sync::Arc;

use crate::cow::CowMemory;
use crate::state::{DecodedState, Input, Output, RegFile};
use crate::{Exception, ExecLimits, MachineState, OutItem, Status};
use sympl_asm::NUM_REGS;
use sympl_symbolic::codec::{
    decode_constraint_map, decode_i64, decode_u64, decode_value, encode_constraint_map, encode_i64,
    encode_u64, encode_value, Codec,
};
use sympl_symbolic::codec_record;
use sympl_symbolic::ConstraintMap;

pub use sympl_symbolic::CodecError;

/// Codec revision byte; bump on any framing change.
const VERSION: u8 = 1;

const STATUS_RUNNING: u8 = 0;
const STATUS_HALTED: u8 = 1;
const STATUS_EXC_ILLEGAL_INSTR: u8 = 2;
const STATUS_EXC_ILLEGAL_ADDR: u8 = 3;
const STATUS_EXC_DIV_ZERO: u8 = 4;
const STATUS_DETECTED: u8 = 5;
const STATUS_TIMED_OUT: u8 = 6;

const OUT_VAL: u8 = 0;
const OUT_STR: u8 = 1;

/// A delta record's `same` bits: the component is the previous record's.
const SAME_MEM: u8 = 1;
const SAME_INPUT: u8 = 1 << 1;
const SAME_OUTPUT: u8 = 1 << 2;
const SAME_CONSTRAINTS: u8 = 1 << 3;

/// Appends the full observable content of `state` to `buf`: one record
/// that decodes alone.
pub fn encode_state(state: &MachineState, buf: &mut Vec<u8>) {
    buf.push(VERSION);
    encode_header(state, buf);
    // Non-zero register cells only ($0 is hard-wired and most registers in
    // a forked state are untouched defaults), in register order.
    encode_reg_cells(state, state.reg_file().nonzero(), buf);
    encode_memory(state, buf);
    encode_input(state, buf);
    encode_u64(state.input_cursor() as u64, buf);
    encode_output(state, buf);
    encode_constraint_map(state.constraints(), buf);
}

/// The encoding context of a spill segment: the state the last record was
/// written from, which the next delta record is written against. Keeping
/// the state, not its address, means none of its allocations can be freed
/// and reused by a different component while it is the base.
#[derive(Debug, Default)]
pub struct StateEncoder {
    prev: Option<MachineState>,
}

impl StateEncoder {
    /// Starts a segment: the next record is a keyframe.
    pub fn reset(&mut self) {
        self.prev = None;
    }

    /// Appends `state`'s record to `buf` — after a [`reset`](Self::reset)
    /// the keyframe, [`encode_state`]'s bytes, and otherwise a delta
    /// record against the state written before — and keeps `state` as the
    /// next record's base.
    pub fn encode(&mut self, state: MachineState, buf: &mut Vec<u8>) {
        match &self.prev {
            None => encode_state(&state, buf),
            Some(prev) => encode_delta(prev, &state, buf),
        }
        self.prev = Some(state);
    }
}

/// Appends `state`'s delta record against `prev` (see the module docs).
fn encode_delta(prev: &MachineState, state: &MachineState, buf: &mut Vec<u8>) {
    let start = buf.len();
    encode_header(state, buf);
    encode_u64(state.input_cursor() as u64, buf);
    let (mem, prev_mem) = (state.memory_image(), prev.memory_image());
    let (map, prev_map) = (state.constraints(), prev.constraints());
    let mut same = 0;
    if mem.digest() == prev_mem.digest() && mem == prev_mem {
        same |= SAME_MEM;
    }
    // `Arc`'s `==` checks the pointer before the content.
    if state.input_arc() == prev.input_arc() {
        same |= SAME_INPUT;
    }
    if state.output_arc() == prev.output_arc() {
        same |= SAME_OUTPUT;
    }
    if map.digest() == prev_map.digest() && map == prev_map {
        same |= SAME_CONSTRAINTS;
    }
    buf.push(same);
    let differ = state.reg_file().differs_from(prev.reg_file());
    encode_reg_cells(state, differ, buf);
    if same & SAME_MEM == 0 {
        encode_memory(state, buf);
    }
    if same & SAME_INPUT == 0 {
        encode_input(state, buf);
    }
    if same & SAME_OUTPUT == 0 {
        encode_output(state, buf);
    }
    if same & SAME_CONSTRAINTS == 0 {
        encode_constraint_map(map, buf);
    }
    let check = fnv1a32(&buf[start..]);
    buf.extend_from_slice(&check.to_le_bytes());
}

/// A delta record's check: 32-bit FNV-1a over `bytes`, one round per
/// little-endian 4-byte word and then one per trailing byte. Each round is
/// a bijection on the 32-bit state (xor, then a multiply by an odd prime),
/// so any single-bit flip of the bytes changes the check.
fn fnv1a32(bytes: &[u8]) -> u32 {
    let round = |h: u32, word: u32| (h ^ word).wrapping_mul(0x0100_0193);
    let mut words = bytes.chunks_exact(4);
    let h = (&mut words).fold(0x811c_9dc5, |h, w| {
        round(h, u32::from_le_bytes([w[0], w[1], w[2], w[3]]))
    });
    words
        .remainder()
        .iter()
        .fold(h, |h, &b| round(h, u32::from(b)))
}

/// `pc`, `steps` and the status.
fn encode_header(state: &MachineState, buf: &mut Vec<u8>) {
    encode_u64(state.pc() as u64, buf);
    encode_u64(state.steps(), buf);
    match state.status() {
        Status::Running => buf.push(STATUS_RUNNING),
        Status::Halted => buf.push(STATUS_HALTED),
        Status::Exception(Exception::IllegalInstruction) => buf.push(STATUS_EXC_ILLEGAL_INSTR),
        Status::Exception(Exception::IllegalAddress) => buf.push(STATUS_EXC_ILLEGAL_ADDR),
        Status::Exception(Exception::DivByZero) => buf.push(STATUS_EXC_DIV_ZERO),
        Status::Detected(id) => {
            buf.push(STATUS_DETECTED);
            encode_u64(u64::from(*id), buf);
        }
        Status::TimedOut => buf.push(STATUS_TIMED_OUT),
    }
}

/// The count and `(index, value)` cells of the registers in `mask`, in
/// register order.
fn encode_reg_cells(state: &MachineState, mut mask: u32, buf: &mut Vec<u8>) {
    let regs = state.reg_file();
    encode_u64(u64::from(mask.count_ones()), buf);
    while mask != 0 {
        let i = mask.trailing_zeros() as usize;
        buf.push(i as u8);
        encode_value(regs.get(i), buf);
        mask &= mask - 1;
    }
}

/// The memory image, ascending addresses delta-coded.
fn encode_memory(state: &MachineState, buf: &mut Vec<u8>) {
    encode_u64(state.memory_len() as u64, buf);
    let mut prev = 0u64;
    for (i, (addr, value)) in state.memory_cells().enumerate() {
        if i == 0 {
            encode_u64(addr, buf);
        } else {
            encode_u64(addr - prev, buf);
        }
        prev = addr;
        encode_value(value, buf);
    }
}

/// The input stream's words (its cursor is written apart).
fn encode_input(state: &MachineState, buf: &mut Vec<u8>) {
    let input = state.input_stream();
    encode_u64(input.len() as u64, buf);
    for &v in input {
        encode_i64(v, buf);
    }
}

fn encode_output(state: &MachineState, buf: &mut Vec<u8>) {
    encode_u64(state.output().len() as u64, buf);
    for item in state.output() {
        match item {
            OutItem::Val(v) => {
                buf.push(OUT_VAL);
                encode_value(*v, buf);
            }
            OutItem::Str(s) => {
                buf.push(OUT_STR);
                encode_u64(s.len() as u64, buf);
                buf.extend_from_slice(s.as_bytes());
            }
        }
    }
}

codec_record! {
    struct ExecLimits { max_steps, fork_jump_targets, fork_mem_targets, track_constraints }
}

/// A state's record is [`encode_state`]'s bytes.
impl Codec for MachineState {
    fn encode(&self, buf: &mut Vec<u8>) {
        encode_state(self, buf);
    }

    fn decode(bytes: &[u8], pos: &mut usize) -> Result<Self, CodecError> {
        let (state, consumed) = decode_state(bytes.get(*pos..).ok_or(CodecError::UnexpectedEnd)?)?;
        *pos += consumed;
        Ok(state)
    }
}

/// Decodes one state from the front of `bytes`, returning it together with
/// the number of bytes consumed (so concatenated records decode back one at
/// a time).
///
/// The decoded state derives every rolling fingerprint cache from the
/// decoded content, so `decoded.fingerprint() ==
/// decoded.fingerprint_from_scratch()` holds by construction, and a
/// round-trip preserves full [`Eq`] with the original.
///
/// # Errors
///
/// Any [`CodecError`] when the buffer is truncated, carries an unknown
/// version or tag, or a count overflows the platform's `usize`.
pub fn decode_state(bytes: &[u8]) -> Result<(MachineState, usize), CodecError> {
    let mut pos = 0usize;
    let version = u8::decode(bytes, &mut pos)?;
    if version != VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let (pc, steps, status) = decode_header(bytes, &mut pos)?;
    let n_regs = usize::decode(bytes, &mut pos)?;
    let regs = decode_reg_cells(bytes, &mut pos, n_regs, RegFile::zero())?;
    let mem = decode_memory(bytes, &mut pos)?;
    let input = decode_input(bytes, &mut pos)?;
    let input_pos = usize::decode(bytes, &mut pos)?;
    let output = decode_output(bytes, &mut pos, &Output::default())?;
    let constraints = decode_constraint_map(bytes, &mut pos)?;
    let state = MachineState::from_decoded(DecodedState {
        pc,
        regs: Arc::new(regs),
        mem,
        input: Arc::new(input),
        input_pos,
        output: Arc::new(output),
        constraints,
        steps,
        status,
    });
    Ok((state, pos))
}

/// The decoding context of a spill segment: the components of the state
/// decoded last, which the next delta record shares or builds on.
#[derive(Debug, Default, Clone)]
pub struct StateDecoder {
    prev: Option<Components>,
}

/// The shared components of a decoded state, each with its fold.
#[derive(Debug, Clone)]
struct Components {
    regs: Arc<RegFile>,
    mem: CowMemory,
    input: Arc<Input>,
    output: Arc<Output>,
    constraints: ConstraintMap,
}

impl StateDecoder {
    /// Starts a segment: the next record is a keyframe.
    pub fn reset(&mut self) {
        self.prev = None;
    }

    /// Decodes the record at the front of `bytes`, returning the state and
    /// the bytes consumed: after a [`reset`](Self::reset) a keyframe,
    /// exactly as [`decode_state`] does, and otherwise a delta record
    /// against the state decoded before, with which the new state shares
    /// every component the record marks unchanged.
    ///
    /// # Errors
    ///
    /// As [`decode_state`], and [`CodecError::BadCheck`] for a delta
    /// record whose check does not match. A record that fails leaves the
    /// context as it was.
    pub fn decode(&mut self, bytes: &[u8]) -> Result<(MachineState, usize), CodecError> {
        let Some(prev) = &mut self.prev else {
            let (state, used) = decode_state(bytes)?;
            self.prev = Some(Components {
                regs: Arc::clone(state.reg_file()),
                mem: state.memory_image().clone(),
                input: Arc::clone(state.input_arc()),
                output: Arc::clone(state.output_arc()),
                constraints: state.constraints().clone(),
            });
            return Ok((state, used));
        };
        decode_delta(bytes, prev)
    }
}

/// Decodes one delta record against `prev`, and on success makes the
/// decoded state's components the next record's base.
fn decode_delta(bytes: &[u8], prev: &mut Components) -> Result<(MachineState, usize), CodecError> {
    let mut pos = 0usize;
    let (pc, steps, status) = decode_header(bytes, &mut pos)?;
    let input_pos = usize::decode(bytes, &mut pos)?;
    let same = u8::decode(bytes, &mut pos)?;
    if same & !(SAME_MEM | SAME_INPUT | SAME_OUTPUT | SAME_CONSTRAINTS) != 0 {
        return Err(CodecError::BadTag {
            what: "delta record flags",
            tag: same,
        });
    }
    let n_regs = usize::decode(bytes, &mut pos)?;
    let regs = match n_regs {
        0 => None,
        n => Some(decode_reg_cells(
            bytes,
            &mut pos,
            n,
            RegFile::clone(&prev.regs),
        )?),
    };
    let mem = (same & SAME_MEM == 0)
        .then(|| decode_memory(bytes, &mut pos))
        .transpose()?;
    let input = (same & SAME_INPUT == 0)
        .then(|| decode_input(bytes, &mut pos))
        .transpose()?;
    let output = (same & SAME_OUTPUT == 0)
        .then(|| decode_output(bytes, &mut pos, &prev.output))
        .transpose()?;
    let constraints = (same & SAME_CONSTRAINTS == 0)
        .then(|| decode_constraint_map(bytes, &mut pos))
        .transpose()?;
    let end = pos.checked_add(4).ok_or(CodecError::Overflow)?;
    let check = bytes.get(pos..end).ok_or(CodecError::UnexpectedEnd)?;
    if check != fnv1a32(&bytes[..pos]).to_le_bytes() {
        return Err(CodecError::BadCheck);
    }

    // The record is whole: from here nothing fails.
    let state = MachineState::from_decoded(DecodedState {
        pc,
        regs: kept(&mut prev.regs, regs.map(Arc::new)),
        mem: kept(&mut prev.mem, mem),
        input: kept(&mut prev.input, input.map(Arc::new)),
        input_pos,
        output: kept(&mut prev.output, output.map(Arc::new)),
        constraints: kept(&mut prev.constraints, constraints),
        steps,
        status,
    });
    Ok((state, end))
}

/// The component for a decoded state: `new` when the record held one,
/// which then becomes the kept one, else the kept one, shared.
fn kept<T: Clone>(kept: &mut T, new: Option<T>) -> T {
    if let Some(new) = new {
        *kept = new;
    }
    kept.clone()
}

/// `pc`, `steps` and the status.
fn decode_header(bytes: &[u8], pos: &mut usize) -> Result<(usize, u64, Status), CodecError> {
    let pc = usize::decode(bytes, pos)?;
    let steps = decode_u64(bytes, pos)?;
    let status = match u8::decode(bytes, pos)? {
        STATUS_RUNNING => Status::Running,
        STATUS_HALTED => Status::Halted,
        STATUS_EXC_ILLEGAL_INSTR => Status::Exception(Exception::IllegalInstruction),
        STATUS_EXC_ILLEGAL_ADDR => Status::Exception(Exception::IllegalAddress),
        STATUS_EXC_DIV_ZERO => Status::Exception(Exception::DivByZero),
        STATUS_DETECTED => {
            let id = decode_u64(bytes, pos)?;
            Status::Detected(u32::try_from(id).map_err(|_| CodecError::Overflow)?)
        }
        STATUS_TIMED_OUT => Status::TimedOut,
        tag => {
            return Err(CodecError::BadTag {
                what: "status",
                tag,
            })
        }
    };
    Ok((pc, steps, status))
}

/// The most elements to reserve for a count of `n` whose elements take at
/// least `least` bytes each: no more than the bytes after `pos` can hold.
fn presize(n: usize, bytes: &[u8], pos: usize, least: usize) -> usize {
    n.min(bytes.len().saturating_sub(pos) / least)
}

/// Writes `n` `(index, value)` register cells onto `regs`, each moving its
/// fold by the two cell hashes of the value it replaces.
fn decode_reg_cells(
    bytes: &[u8],
    pos: &mut usize,
    n: usize,
    mut regs: RegFile,
) -> Result<RegFile, CodecError> {
    for _ in 0..n {
        let idx = u8::decode(bytes, pos)?;
        // `$0` is hard-wired: the encoder never writes it, and a cell
        // for it would make a state that reads `$0 = 0` yet differs
        // from its own re-encoding.
        if idx == 0 || usize::from(idx) >= NUM_REGS {
            return Err(CodecError::BadTag {
                what: "register index",
                tag: idx,
            });
        }
        regs.set(usize::from(idx), decode_value(bytes, pos)?);
    }
    Ok(regs)
}

/// The memory section, folded in one pass.
fn decode_memory(bytes: &[u8], pos: &mut usize) -> Result<CowMemory, CodecError> {
    let n_mem = usize::decode(bytes, pos)?;
    // A cell is at least an address byte and a value byte.
    let mut mem = Vec::with_capacity(presize(n_mem, bytes, *pos, 2));
    let mut addr = 0u64;
    for i in 0..n_mem {
        let delta = decode_u64(bytes, pos)?;
        addr = if i == 0 {
            delta
        } else {
            addr.wrapping_add(delta)
        };
        mem.push((addr, decode_value(bytes, pos)?));
    }
    Ok(CowMemory::from_cells(mem))
}

/// The input section's words, with their digest.
fn decode_input(bytes: &[u8], pos: &mut usize) -> Result<Input, CodecError> {
    let n_input = usize::decode(bytes, pos)?;
    let mut input = Vec::with_capacity(presize(n_input, bytes, *pos, 1));
    for _ in 0..n_input {
        input.push(decode_i64(bytes, pos)?);
    }
    Ok(Input::new(input))
}

/// The output section, with its fold moved from `base`'s and its `err`
/// count.
fn decode_output(bytes: &[u8], pos: &mut usize, base: &Output) -> Result<Output, CodecError> {
    let n_out = usize::decode(bytes, pos)?;
    // An item is at least a tag byte and a value or length byte.
    let mut output = Vec::with_capacity(presize(n_out, bytes, *pos, 2));
    for _ in 0..n_out {
        match u8::decode(bytes, pos)? {
            OUT_VAL => output.push(OutItem::Val(decode_value(bytes, pos)?)),
            OUT_STR => {
                let len = usize::decode(bytes, pos)?;
                let end = pos.checked_add(len).ok_or(CodecError::Overflow)?;
                let slice = bytes.get(*pos..end).ok_or(CodecError::UnexpectedEnd)?;
                let s = std::str::from_utf8(slice).map_err(|_| CodecError::BadUtf8)?;
                output.push(OutItem::Str(s.into()));
                *pos = end;
            }
            tag => {
                return Err(CodecError::BadTag {
                    what: "output item",
                    tag,
                })
            }
        }
    }
    Ok(Output::over(output, base))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympl_asm::Reg;
    use sympl_symbolic::{Constraint, Location, Value};

    /// A state exercising every encoded component.
    fn bulky_state() -> MachineState {
        let mut s = MachineState::with_input(vec![3, -1, 0, i64::MAX]);
        let _ = s.read_input();
        s.set_pc(17);
        for _ in 0..5 {
            s.bump_steps();
        }
        s.set_reg(Reg::r(1), Value::Err);
        s.set_reg(Reg::r(7), Value::Int(-42));
        s.set_reg(Reg::r(31), Value::Int(i64::MIN));
        s.load_memory([(0, 1), (8, -9), (4096, 77)]);
        s.set_mem(16, Value::Err);
        let _ = s
            .constraints_mut()
            .constrain(Location::reg(1), Constraint::Gt(0));
        let _ = s
            .constraints_mut()
            .constrain(Location::Mem(16), Constraint::Ne(5));
        s.push_output(OutItem::Str("x = ".into()));
        s.push_output(OutItem::Val(Value::Int(120)));
        s.push_output(OutItem::Val(Value::Err));
        s
    }

    fn roundtrip(s: &MachineState) -> MachineState {
        let mut buf = Vec::new();
        encode_state(s, &mut buf);
        let (decoded, consumed) = decode_state(&buf).expect("well-formed encoding");
        assert_eq!(consumed, buf.len(), "whole record consumed");
        decoded
    }

    #[test]
    fn fresh_and_bulky_states_roundtrip() {
        for s in [MachineState::new(), bulky_state()] {
            let decoded = roundtrip(&s);
            assert_eq!(decoded, s);
            assert_eq!(decoded.fingerprint(), s.fingerprint());
            assert_eq!(
                decoded.fingerprint(),
                decoded.fingerprint_from_scratch(),
                "decoded rolling caches must be rebuilt, not copied"
            );
        }
    }

    #[test]
    fn every_status_roundtrips() {
        for status in [
            Status::Running,
            Status::Halted,
            Status::Exception(Exception::IllegalInstruction),
            Status::Exception(Exception::IllegalAddress),
            Status::Exception(Exception::DivByZero),
            Status::Detected(1234),
            Status::TimedOut,
        ] {
            let mut s = MachineState::new();
            s.set_status(status);
            assert_eq!(roundtrip(&s).status(), &status);
        }
    }

    #[test]
    fn records_are_self_delimiting_in_a_stream() {
        let a = MachineState::new();
        let b = bulky_state();
        let mut buf = Vec::new();
        encode_state(&a, &mut buf);
        encode_state(&b, &mut buf);
        encode_state(&a, &mut buf);
        let mut pos = 0;
        let mut decoded = Vec::new();
        while pos < buf.len() {
            let (s, consumed) = decode_state(&buf[pos..]).expect("stream record");
            decoded.push(s);
            pos += consumed;
        }
        assert_eq!(decoded.len(), 3);
        assert_eq!(decoded[0], a);
        assert_eq!(decoded[1], b);
        assert_eq!(decoded[2], a);
    }

    #[test]
    fn cow_layering_is_invisible_to_the_codec() {
        // A state written after a fork must encode identically to a flat
        // state with the same content.
        let mut origin = MachineState::new();
        origin.load_memory((0..40).map(|i| (i * 8, i as i64)));
        let mut fork = origin.clone();
        fork.set_mem(8, Value::Int(999));
        fork.set_mem(4096, Value::Err);
        // A write unshares the fork's image; the origin is untouched.
        assert!(!fork.memory_shares_storage(&origin));
        assert_eq!(origin.mem(8), Some(Value::Int(1)));

        let mut flat = MachineState::new();
        flat.load_memory((0..40).map(|i| (i * 8, i as i64)));
        flat.set_mem(8, Value::Int(999));
        flat.set_mem(4096, Value::Err);

        let enc = |s: &MachineState| {
            let mut buf = Vec::new();
            encode_state(s, &mut buf);
            buf
        };
        assert_eq!(enc(&fork), enc(&flat));
        assert_eq!(roundtrip(&fork), flat);
    }

    #[test]
    fn truncation_and_bad_bytes_error_cleanly() {
        let mut buf = Vec::new();
        encode_state(&bulky_state(), &mut buf);
        for cut in [0, 1, 2, buf.len() / 2, buf.len() - 1] {
            assert!(
                decode_state(&buf[..cut]).is_err(),
                "truncation at {cut} must error"
            );
        }
        assert_eq!(decode_state(&[9]).unwrap_err(), CodecError::BadVersion(9));
        // A bad status tag right after the header.
        let bad = [VERSION, 0, 0, 99];
        assert!(matches!(
            decode_state(&bad),
            Err(CodecError::BadTag { what: "status", .. })
        ));
    }

    #[test]
    fn a_cell_for_the_zero_register_is_refused() {
        // Header, then one register cell (index, value), then an empty
        // memory image, input, cursor, output and constraint map.
        let record = |idx: u8| {
            let mut buf = vec![VERSION, 0, 0, STATUS_RUNNING, 1, idx];
            encode_value(Value::Int(5), &mut buf);
            buf.extend_from_slice(&[0, 0, 0, 0, 0]);
            buf
        };
        let (s, used) = decode_state(&record(1)).expect("index 1 is a register");
        assert_eq!(used, record(1).len());
        assert_eq!(s.reg(Reg::r(1)), Value::Int(5));
        for idx in [0, NUM_REGS as u8] {
            assert_eq!(
                decode_state(&record(idx)).unwrap_err(),
                CodecError::BadTag {
                    what: "register index",
                    tag: idx
                }
            );
        }
    }

    #[test]
    fn encoding_is_compact() {
        // A fresh state is a handful of bytes, not a struct dump.
        let mut buf = Vec::new();
        encode_state(&MachineState::new(), &mut buf);
        assert!(buf.len() < 16, "fresh state took {} bytes", buf.len());
        // A 512-word memory image stays well under the in-RAM footprint.
        let mut s = MachineState::new();
        s.load_memory((0..512u64).map(|i| (i * 8, i as i64)));
        buf.clear();
        encode_state(&s, &mut buf);
        assert!(
            buf.len() < s.approx_bytes() / 2,
            "{} encoded vs {} in RAM",
            buf.len(),
            s.approx_bytes()
        );
    }

    #[test]
    fn exec_limits_roundtrip() {
        for limits in [
            ExecLimits::default(),
            ExecLimits {
                max_steps: u64::MAX,
                fork_jump_targets: Some(0),
                fork_mem_targets: Some(123_456),
                track_constraints: false,
            },
        ] {
            let mut buf = Vec::new();
            limits.encode(&mut buf);
            let mut pos = 0;
            assert_eq!(ExecLimits::decode(&buf, &mut pos).unwrap(), limits);
            assert_eq!(pos, buf.len());
        }
        assert!(ExecLimits::decode(&[], &mut 0).is_err());
    }

    #[test]
    fn approx_bytes_is_content_pure() {
        let s = bulky_state();
        assert_eq!(roundtrip(&s).approx_bytes(), s.approx_bytes());
        assert!(s.approx_bytes() >= std::mem::size_of::<MachineState>());
        // The spill schedule is a function of this figure: a change to the
        // state's representation must not move it.
        assert_eq!(s.approx_bytes(), 1208);
    }
    fn encoded(states: &[MachineState]) -> Vec<u8> {
        let mut buf = Vec::new();
        for s in states {
            encode_state(s, &mut buf);
        }
        buf
    }

    /// One segment of `states` through a fresh encoder, with the end of
    /// each record.
    fn segment(states: &[MachineState]) -> (Vec<u8>, Vec<usize>) {
        let mut encoder = StateEncoder::default();
        let mut buf = Vec::new();
        let mut ends = Vec::new();
        for s in states {
            encoder.encode(s.clone(), &mut buf);
            ends.push(buf.len());
        }
        (buf, ends)
    }

    /// Decodes a whole segment through one decoder.
    fn decode_stream(decoder: &mut StateDecoder, buf: &[u8]) -> Vec<MachineState> {
        decoder.reset();
        let mut pos = 0;
        let mut decoded = Vec::new();
        while pos < buf.len() {
            let (s, consumed) = decoder.decode(&buf[pos..]).expect("stream record");
            decoded.push(s);
            pos += consumed;
        }
        decoded
    }

    /// Forks of `bulky_state` that each rewrite one register, as a fork
    /// rule's siblings do.
    fn siblings(n: i64) -> Vec<MachineState> {
        let base = bulky_state();
        (0..n)
            .map(|v| {
                let mut s = base.clone();
                s.set_reg(Reg::r(4), Value::Int(v));
                s.bump_steps();
                s
            })
            .collect()
    }

    #[test]
    fn a_segment_is_a_keyframe_then_small_delta_records() {
        let states = siblings(20);
        let (buf, ends) = segment(&states);
        assert_eq!(
            buf[..ends[0]],
            encoded(&states[..1])[..],
            "the keyframe is the one-shot record"
        );
        let keyframe = ends[0];
        let deltas = (buf.len() - keyframe) / (states.len() - 1);
        assert!(
            deltas * 4 < keyframe,
            "{deltas} B a delta record against a {keyframe} B keyframe"
        );
        let decoded = decode_stream(&mut StateDecoder::default(), &buf);
        assert_eq!(decoded, states);
        for d in &decoded {
            assert_eq!(d.fingerprint(), d.fingerprint_from_scratch());
            assert!(d.memory_shares_storage(&decoded[0]), "one shared image");
            assert_eq!(
                d.input_stream().as_ptr(),
                decoded[0].input_stream().as_ptr()
            );
        }
    }

    #[test]
    fn a_stream_shares_what_consecutive_records_repeat() {
        let a = bulky_state();
        let mut b = a.clone();
        b.set_reg(Reg::r(31), Value::Err);
        b.set_reg(Reg::r(7), Value::Int(0));
        let mut c = b.clone();
        c.set_mem(8, Value::Int(6));
        c.push_output(OutItem::Val(Value::Int(3)));
        let _ = c
            .constraints_mut()
            .constrain(Location::reg(2), Constraint::Lt(9));
        let _ = c.read_input();
        c.set_status(Status::Detected(7));
        // Content-equal to `c`, built apart: nothing is shared by pointer.
        let d = roundtrip(&c);
        let e = MachineState::with_input(vec![1]);
        let states = [a, b, c, d, e.clone(), e];
        let (buf, ends) = segment(&states);
        let decoded = decode_stream(&mut StateDecoder::default(), &buf);
        assert_eq!(decoded, states);
        for d in &decoded {
            assert_eq!(d.fingerprint(), d.fingerprint_from_scratch());
        }
        assert!(decoded[0].memory_shares_storage(&decoded[1]));
        assert!(!decoded[1].memory_shares_storage(&decoded[2]));
        assert!(
            decoded[2].memory_shares_storage(&decoded[3]),
            "equal content is shared too"
        );
        // The repeat of `c` holds its header, cursor, flags, an empty
        // register section and the check.
        assert!(ends[3] - ends[2] <= 16, "{} B", ends[3] - ends[2]);
    }

    #[test]
    fn a_failed_record_leaves_the_stream_decoder_exact() {
        let states = siblings(3);
        let (buf, ends) = segment(&states);
        let mut decoder = StateDecoder::default();
        decoder.decode(&buf[..ends[0]]).unwrap();
        decoder.decode(&buf[ends[0]..ends[1]]).unwrap();
        let record = &buf[ends[1]..];
        for cut in 0..record.len() {
            assert!(decoder.decode(&record[..cut]).is_err(), "cut at {cut}");
        }
        for bit in 0..record.len() * 8 {
            let mut flipped = record.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(decoder.decode(&flipped).is_err(), "bit {bit} flipped");
        }
        let (d, used) = decoder.decode(record).unwrap();
        assert_eq!((&d, used), (&states[2], record.len()));
        assert_eq!(d.fingerprint(), d.fingerprint_from_scratch());
    }

    #[test]
    fn a_reset_starts_a_segment_that_decodes_alone() {
        let states = siblings(4);
        let mut encoder = StateEncoder::default();
        let (mut first, mut second) = (Vec::new(), Vec::new());
        for s in &states[..2] {
            encoder.encode(s.clone(), &mut first);
        }
        encoder.reset();
        for s in &states[2..] {
            encoder.encode(s.clone(), &mut second);
        }
        assert!(second.starts_with(&encoded(&states[2..3])));
        // Read back in the other order, as a LIFO replay does.
        let mut decoder = StateDecoder::default();
        assert_eq!(decode_stream(&mut decoder, &second), states[2..]);
        assert_eq!(decode_stream(&mut decoder, &first), states[..2]);
    }

    #[test]
    fn one_decoder_shares_one_input_allocation() {
        let mut a = bulky_state();
        let mut b = a.clone();
        b.set_reg(Reg::r(9), Value::Int(5));
        a.set_pc(3);
        let states = [a.clone(), b, a];
        let (buf, ends) = segment(&states);
        let decoded = decode_stream(&mut StateDecoder::default(), &buf);
        assert_eq!(decoded, states);
        let ptr = decoded[0].input_stream().as_ptr();
        for s in &decoded {
            assert_eq!(s.input_stream().as_ptr(), ptr, "one shared input");
        }
        // One-shot decodes each own their input.
        let one_shot = encoded(&states);
        let (x, used) = decode_state(&one_shot).unwrap();
        let (y, _) = decode_state(&one_shot[used..]).unwrap();
        assert_ne!(x.input_stream().as_ptr(), y.input_stream().as_ptr());
        assert_eq!(used, ends[0], "the keyframe is the one-shot record");
    }

    #[test]
    fn a_decoder_meeting_a_new_input_returns_it_exactly() {
        let first = bulky_state();
        let other = MachineState::with_input(vec![3, -1, 0]);
        let longer = MachineState::with_input(vec![3, -1, 0, i64::MAX, 8]);
        let empty = MachineState::new();
        let states = [first.clone(), other, longer, empty, first];
        let (buf, _) = segment(&states);
        let decoded = decode_stream(&mut StateDecoder::default(), &buf);
        for (d, s) in decoded.iter().zip(&states) {
            assert_eq!(d.input_stream(), s.input_stream());
            assert_eq!(d, s);
        }
    }

    #[test]
    fn decoder_states_fingerprint_as_from_scratch() {
        let mut states = vec![MachineState::new(), bulky_state()];
        let mut fork = bulky_state();
        fork.set_mem(8, Value::Err);
        let _ = fork
            .constraints_mut()
            .constrain(Location::Mem(8), Constraint::Le(4));
        states.push(fork);
        states.push(MachineState::with_input(vec![1, 2]));
        states.push(bulky_state());
        let (buf, _) = segment(&states);
        let mut decoder = StateDecoder::default();
        for (d, s) in decode_stream(&mut decoder, &buf).iter().zip(&states) {
            assert_eq!(d.fingerprint(), d.fingerprint_from_scratch());
            assert_eq!(d.fingerprint(), s.fingerprint());
        }
    }
}
