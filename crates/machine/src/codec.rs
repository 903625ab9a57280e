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
//! concatenated into segment files and decoded back one at a time —
//! exactly what the disk-spilling frontier does ([`decode_state`] returns
//! the bytes consumed).
//!
//! The one-shot [`encode_state`] and [`decode_state`] share nothing: each
//! state decoded by them owns its register file, memory image, input,
//! output stream and constraint map. A stream of states goes through one
//! [`StateEncoder`] and one [`StateDecoder`] instead, which write and read
//! the same bytes but pay only for what consecutive states change. The
//! encoder copies the bytes of the last memory image and input it wrote
//! while the next state still shares that storage. The decoder hands the
//! last decoded register file, memory image, input, output stream and
//! constraint map, with their folds, to the next state whose record
//! repeats that section's bytes, and otherwise moves the register and
//! output folds over the cells that differ. So the states a spilling
//! frontier decodes share one memory image and one input allocation for
//! as long as their records repeat them, and a register file or output
//! stream with the state before them when it is equal.
//!
//! The same bytes are [`MachineState`]'s [`Codec`] record, which is how a
//! state rides inside wire frames and files; [`ExecLimits`] is declared
//! here as a record too.

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
use sympl_symbolic::{ConstraintMap, Value};

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

/// Appends the full observable content of `state` to `buf`. Builds
/// nothing to keep: a caller writing a stream of states keeps one
/// [`StateEncoder`] instead, which writes the same bytes.
pub fn encode_state(state: &MachineState, buf: &mut Vec<u8>) {
    encode_record(state, buf, None);
}

/// The encoding context of a stream of states: the bytes of the last
/// memory image and input stream written, with the storage they were
/// written from. A state that still shares that storage (a fork, or a
/// state decoded by a stream [`StateDecoder`]) gets the bytes copied
/// instead of its cells re-encoded. The bytes are [`encode_state`]'s.
#[derive(Debug, Default)]
pub struct StateEncoder {
    mem: Option<(CowMemory, Vec<u8>)>,
    input: Option<(Arc<Input>, Vec<u8>)>,
}

impl StateEncoder {
    /// [`encode_state`] through this context.
    pub fn encode(&mut self, state: &MachineState, buf: &mut Vec<u8>) {
        encode_record(state, buf, Some(self));
    }
}

/// The one encoder body: [`encode_state`] passes no context, a
/// [`StateEncoder`] itself.
fn encode_record(state: &MachineState, buf: &mut Vec<u8>, mut cache: Option<&mut StateEncoder>) {
    buf.push(VERSION);
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

    // Non-zero register cells only ($0 is hard-wired and most registers in
    // a forked state are untouched defaults), in register order.
    let regs = state.reg_file();
    let mut nonzero = regs.nonzero();
    encode_u64(u64::from(nonzero.count_ones()), buf);
    while nonzero != 0 {
        let i = nonzero.trailing_zeros() as usize;
        buf.push(i as u8);
        encode_value(regs.get(i), buf);
        nonzero &= nonzero - 1;
    }

    // Memory image, ascending addresses delta-coded.
    encode_section(
        buf,
        cache.as_mut().map(|c| &mut c.mem),
        state.memory_image(),
        CowMemory::shares_storage_with,
        |buf| {
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
        },
    );

    encode_section(
        buf,
        cache.as_mut().map(|c| &mut c.input),
        state.input_arc(),
        Arc::ptr_eq,
        |buf| {
            let input = state.input_stream();
            encode_u64(input.len() as u64, buf);
            for &v in input {
                encode_i64(v, buf);
            }
        },
    );
    encode_u64(state.input_cursor() as u64, buf);

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

    encode_constraint_map(state.constraints(), buf);
}

/// Appends one section written by `encode`. With a context `kept`, the
/// section's bytes are copied from it when they were written from storage
/// `same` as `storage`, else written and kept with `storage`.
fn encode_section<K: Clone>(
    buf: &mut Vec<u8>,
    kept: Option<&mut Option<(K, Vec<u8>)>>,
    storage: &K,
    same: fn(&K, &K) -> bool,
    encode: impl FnOnce(&mut Vec<u8>),
) {
    let Some(kept) = kept else {
        return encode(buf);
    };
    match kept {
        Some((from, bytes)) if same(from, storage) => buf.extend_from_slice(bytes),
        _ => {
            let start = buf.len();
            encode(buf);
            let mut bytes = kept.take().map(|(_, bytes)| bytes).unwrap_or_default();
            bytes.clear();
            bytes.extend_from_slice(&buf[start..]);
            *kept = Some((storage.clone(), bytes));
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
/// the number of bytes consumed (so concatenated records — spill segments —
/// decode back one at a time).
///
/// The decoded state derives every rolling fingerprint cache from the
/// decoded content, so `decoded.fingerprint() ==
/// decoded.fingerprint_from_scratch()` holds by construction, and a
/// round-trip preserves full [`Eq`] with the original. Builds nothing to
/// keep: a caller decoding a stream of states keeps one [`StateDecoder`]
/// instead, so the states share what they have in common.
///
/// # Errors
///
/// Any [`CodecError`] when the buffer is truncated, carries an unknown
/// version or tag, or a count overflows the platform's `usize`.
pub fn decode_state(bytes: &[u8]) -> Result<(MachineState, usize), CodecError> {
    decode_record(bytes, None)
}

/// The decoding context of a stream of states: for each section of the
/// record after the header (registers, memory image, input stream, output
/// stream, constraint map), the bytes of the last one decoded and the
/// component they decoded to, with its fold.
///
/// A record whose bytes at a section start with the kept bytes gets the
/// kept component, shared, without reading the cells: the format is
/// deterministic and self-delimiting, so those bytes decode to exactly that
/// component and end where the kept ones end. The encoder writes equal
/// components as equal bytes, so that is also how an equal component is
/// shared. Any other section is decoded; its register and output folds are
/// moved from the kept ones over the cells that differ.
#[derive(Debug, Default)]
pub struct StateDecoder {
    regs: Kept<Arc<RegFile>>,
    mem: Kept<CowMemory>,
    input: Kept<Arc<Input>>,
    output: Kept<Arc<Output>>,
    constraints: Kept<ConstraintMap>,
}

/// One section of the last record a [`StateDecoder`] read: its bytes and
/// what they decoded to.
type Kept<T> = Option<(Vec<u8>, T)>;

impl StateDecoder {
    /// [`decode_state`] through this context: the same result, sharing
    /// with the states decoded here before what they have in common.
    ///
    /// # Errors
    ///
    /// As [`decode_state`]. A record that fails leaves the context valid.
    pub fn decode(&mut self, bytes: &[u8]) -> Result<(MachineState, usize), CodecError> {
        decode_record(bytes, Some(self))
    }
}

/// The one decoder body: [`decode_state`] passes no context, a
/// [`StateDecoder`] itself.
fn decode_record(
    bytes: &[u8],
    mut cache: Option<&mut StateDecoder>,
) -> Result<(MachineState, usize), CodecError> {
    let mut pos = 0usize;
    let version = u8::decode(bytes, &mut pos)?;
    if version != VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let pc = usize::decode(bytes, &mut pos)?;
    let steps = decode_u64(bytes, &mut pos)?;
    let status = match u8::decode(bytes, &mut pos)? {
        STATUS_RUNNING => Status::Running,
        STATUS_HALTED => Status::Halted,
        STATUS_EXC_ILLEGAL_INSTR => Status::Exception(Exception::IllegalInstruction),
        STATUS_EXC_ILLEGAL_ADDR => Status::Exception(Exception::IllegalAddress),
        STATUS_EXC_DIV_ZERO => Status::Exception(Exception::DivByZero),
        STATUS_DETECTED => {
            let id = decode_u64(bytes, &mut pos)?;
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

    let regs = decode_section(
        bytes,
        &mut pos,
        cache.as_mut().map(|c| &mut c.regs),
        decode_regs,
    )?;
    let mem = decode_section(
        bytes,
        &mut pos,
        cache.as_mut().map(|c| &mut c.mem),
        |bytes, pos, _| decode_memory(bytes, pos),
    )?;
    let input = decode_section(
        bytes,
        &mut pos,
        cache.as_mut().map(|c| &mut c.input),
        |bytes, pos, _| decode_input(bytes, pos),
    )?;
    let input_pos = usize::decode(bytes, &mut pos)?;
    let output = decode_section(
        bytes,
        &mut pos,
        cache.as_mut().map(|c| &mut c.output),
        decode_output,
    )?;
    let constraints = decode_section(
        bytes,
        &mut pos,
        cache.as_mut().map(|c| &mut c.constraints),
        |bytes, pos, _| decode_constraint_map(bytes, pos),
    )?;

    let state = MachineState::from_decoded(DecodedState {
        pc,
        regs,
        mem,
        input,
        input_pos,
        output,
        constraints,
        steps,
        status,
    });
    Ok((state, pos))
}

/// Reads one section at `*pos` with `decode`, which is handed the kept
/// component to build on. With a context `kept`, a section whose bytes
/// start with the kept bytes is the kept component, and any other that
/// decodes replaces it.
fn decode_section<T: Clone>(
    bytes: &[u8],
    pos: &mut usize,
    kept: Option<&mut Kept<T>>,
    decode: impl FnOnce(&[u8], &mut usize, Option<&T>) -> Result<T, CodecError>,
) -> Result<T, CodecError> {
    let Some(kept) = kept else {
        return decode(bytes, pos, None);
    };
    let rest = bytes.get(*pos..).ok_or(CodecError::UnexpectedEnd)?;
    if let Some((section, value)) = kept {
        if rest.starts_with(section) {
            *pos += section.len();
            return Ok(value.clone());
        }
    }
    let start = *pos;
    let value = decode(bytes, pos, kept.as_ref().map(|(_, value)| value))?;
    let mut section = kept.take().map(|(section, _)| section).unwrap_or_default();
    section.clear();
    section.extend_from_slice(&bytes[start..*pos]);
    *kept = Some((section, value.clone()));
    Ok(value)
}

/// The most elements to reserve for a count of `n` whose elements take at
/// least `least` bytes each: no more than the bytes after `pos` can hold.
fn presize(n: usize, bytes: &[u8], pos: usize, least: usize) -> usize {
    n.min(bytes.len().saturating_sub(pos) / least)
}

/// The register section, with its fold moved from `base`'s (or the zero
/// file's) over the registers that differ.
fn decode_regs(
    bytes: &[u8],
    pos: &mut usize,
    base: Option<&Arc<RegFile>>,
) -> Result<Arc<RegFile>, CodecError> {
    let mut cells = [Value::Int(0); NUM_REGS];
    let n_regs = usize::decode(bytes, pos)?;
    for _ in 0..n_regs {
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
        cells[usize::from(idx)] = decode_value(bytes, pos)?;
    }
    // `set` skips a cell that already holds its value, so the fold moves
    // by two cell hashes per register that differs from the base.
    let mut regs = base.map_or_else(RegFile::zero, |base| RegFile::clone(base));
    for (i, &v) in cells.iter().enumerate().skip(1) {
        regs.set(i, v);
    }
    Ok(Arc::new(regs))
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

/// The input section, with its digest.
fn decode_input(bytes: &[u8], pos: &mut usize) -> Result<Arc<Input>, CodecError> {
    let n_input = usize::decode(bytes, pos)?;
    let mut input = Vec::with_capacity(presize(n_input, bytes, *pos, 1));
    for _ in 0..n_input {
        input.push(decode_i64(bytes, pos)?);
    }
    Ok(Arc::new(Input::new(input)))
}

/// The output section, with its fold moved from `base`'s where given and
/// its `err` count.
fn decode_output(
    bytes: &[u8],
    pos: &mut usize,
    base: Option<&Arc<Output>>,
) -> Result<Arc<Output>, CodecError> {
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
    let empty = Output::default();
    Ok(Arc::new(Output::over(output, base.map_or(&empty, |b| b))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympl_asm::Reg;
    use sympl_symbolic::{Constraint, Location};

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

    /// Decodes a whole stream through one decoder.
    fn decode_stream(decoder: &mut StateDecoder, buf: &[u8]) -> Vec<MachineState> {
        let mut pos = 0;
        let mut decoded = Vec::new();
        while pos < buf.len() {
            let (s, consumed) = decoder.decode(&buf[pos..]).expect("stream record");
            decoded.push(s);
            pos += consumed;
        }
        decoded
    }

    #[test]
    fn one_decoder_shares_one_input_allocation() {
        let mut a = bulky_state();
        let mut b = a.clone();
        b.set_reg(Reg::r(9), Value::Int(5));
        a.set_pc(3);
        let buf = encoded(&[a.clone(), b.clone(), a.clone()]);
        let decoded = decode_stream(&mut StateDecoder::default(), &buf);
        assert_eq!(decoded, [a.clone(), b, a]);
        let ptr = decoded[0].input_stream().as_ptr();
        for s in &decoded {
            assert_eq!(s.input_stream().as_ptr(), ptr, "one shared input");
        }
        // Separate free-function decodes each own their input.
        let (x, used) = decode_state(&buf).unwrap();
        let (y, _) = decode_state(&buf[used..]).unwrap();
        assert_ne!(x.input_stream().as_ptr(), y.input_stream().as_ptr());
    }

    #[test]
    fn a_decoder_meeting_a_new_input_returns_it_exactly() {
        let first = bulky_state();
        let other = MachineState::with_input(vec![3, -1, 0]);
        let longer = MachineState::with_input(vec![3, -1, 0, i64::MAX, 8]);
        let empty = MachineState::new();
        let states = [first.clone(), other, longer, empty, first];
        let mut decoder = StateDecoder::default();
        let decoded = decode_stream(&mut decoder, &encoded(&states));
        for (d, s) in decoded.iter().zip(&states) {
            assert_eq!(d.input_stream(), s.input_stream());
            assert_eq!(d, s);
        }
    }

    #[test]
    fn a_stream_shares_what_consecutive_records_repeat() {
        let a = bulky_state();
        let mut b = a.clone();
        b.set_reg(Reg::r(31), Value::Int(5));
        let mut c = b.clone();
        c.set_mem(8, Value::Int(6));
        let states = [a, b, c];

        let mut encoder = StateEncoder::default();
        let mut buf = Vec::new();
        for s in &states {
            encoder.encode(s, &mut buf);
        }
        assert_eq!(
            buf,
            encoded(&states),
            "the stream writes the one-shot bytes"
        );

        let decoded = decode_stream(&mut StateDecoder::default(), &buf);
        assert_eq!(decoded, states);
        assert!(decoded[0].memory_shares_storage(&decoded[1]));
        assert!(!decoded[1].memory_shares_storage(&decoded[2]));
        for d in &decoded {
            assert_eq!(d.fingerprint(), d.fingerprint_from_scratch());
        }
        // One-shot decodes share nothing.
        let (x, used) = decode_state(&buf).unwrap();
        let (y, _) = decode_state(&buf[used..]).unwrap();
        assert!(!x.memory_shares_storage(&y));
    }

    #[test]
    fn a_failed_record_leaves_the_stream_decoder_exact() {
        let a = bulky_state();
        let mut b = a.clone();
        b.set_mem(4096, Value::Int(1));
        let (ra, rb) = (
            encoded(std::slice::from_ref(&a)),
            encoded(std::slice::from_ref(&b)),
        );
        let mut decoder = StateDecoder::default();
        assert_eq!(decoder.decode(&ra).unwrap().0, a);
        for cut in 0..rb.len() {
            assert!(decoder.decode(&rb[..cut]).is_err(), "cut at {cut}");
        }
        let (d, used) = decoder.decode(&rb).unwrap();
        assert_eq!((d.clone(), used), (b, rb.len()));
        assert_eq!(d.fingerprint(), d.fingerprint_from_scratch());
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
        let mut decoder = StateDecoder::default();
        for (d, s) in decode_stream(&mut decoder, &encoded(&states))
            .iter()
            .zip(&states)
        {
            assert_eq!(d.fingerprint(), d.fingerprint_from_scratch());
            assert_eq!(d.fingerprint(), s.fingerprint());
        }
    }
}
