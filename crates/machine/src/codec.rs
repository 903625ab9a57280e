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
//! regs:   count, (index:u8, value)*            — non-zero cells only
//! mem:    count, first-addr, (addr-delta, value)*  — ascending, delta-coded
//! input:  count, zigzag*, cursor:varint
//! output: count, (0 value | 1 len utf8-bytes)*
//! constraints: sympl_symbolic::codec map encoding
//! ```
//!
//! Every record is length-free and self-delimiting, so states can be
//! concatenated into segment files and decoded back one at a time —
//! exactly what the disk-spilling frontier does ([`decode_state`] returns
//! the bytes consumed). Copy-on-write sharing does not survive a
//! round-trip (each decoded state owns its image); that is inherent to
//! spilling and documented at the spill site.
//!
//! The same bytes are [`MachineState`]'s [`Codec`] record, which is how a
//! state rides inside wire frames and files; [`ExecLimits`] is declared
//! here as a record too.

use crate::state::DecodedState;
use crate::{Exception, ExecLimits, MachineState, OutItem, Status};
use sympl_asm::{Reg, NUM_REGS};
use sympl_symbolic::codec::{
    decode_constraint_map, decode_i64, decode_u64, decode_value, encode_constraint_map, encode_i64,
    encode_u64, encode_value, Codec,
};
use sympl_symbolic::codec_record;
use sympl_symbolic::Value;

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

/// Appends the full observable content of `state` to `buf`.
pub fn encode_state(state: &MachineState, buf: &mut Vec<u8>) {
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
    // a forked state are untouched defaults).
    let nonzero: Vec<(u8, Value)> = Reg::all()
        .filter_map(|r| {
            let v = state.reg(r);
            (v != Value::Int(0)).then(|| (u8::from(r), v))
        })
        .collect();
    encode_u64(nonzero.len() as u64, buf);
    for (idx, v) in nonzero {
        buf.push(idx);
        encode_value(v, buf);
    }

    // Memory image, ascending addresses delta-coded.
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

    let input = state.input_stream();
    encode_u64(input.len() as u64, buf);
    for &v in input {
        encode_i64(v, buf);
    }
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
/// The decoded state re-derives every rolling fingerprint cache from the
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

    let mut regs = [Value::Int(0); NUM_REGS];
    let n_regs = usize::decode(bytes, &mut pos)?;
    for _ in 0..n_regs {
        let idx = u8::decode(bytes, &mut pos)?;
        if usize::from(idx) >= NUM_REGS {
            return Err(CodecError::BadTag {
                what: "register index",
                tag: idx,
            });
        }
        regs[usize::from(idx)] = decode_value(bytes, &mut pos)?;
    }

    let n_mem = usize::decode(bytes, &mut pos)?;
    let mut mem = Vec::with_capacity(n_mem.min(1 << 16));
    let mut addr = 0u64;
    for i in 0..n_mem {
        let delta = decode_u64(bytes, &mut pos)?;
        addr = if i == 0 {
            delta
        } else {
            addr.wrapping_add(delta)
        };
        mem.push((addr, decode_value(bytes, &mut pos)?));
    }

    let n_input = usize::decode(bytes, &mut pos)?;
    let mut input = Vec::with_capacity(n_input.min(1 << 16));
    for _ in 0..n_input {
        input.push(decode_i64(bytes, &mut pos)?);
    }
    let input_pos = usize::decode(bytes, &mut pos)?;

    let n_out = usize::decode(bytes, &mut pos)?;
    let mut output = Vec::with_capacity(n_out.min(1 << 16));
    for _ in 0..n_out {
        match u8::decode(bytes, &mut pos)? {
            OUT_VAL => output.push(OutItem::Val(decode_value(bytes, &mut pos)?)),
            OUT_STR => {
                let len = usize::decode(bytes, &mut pos)?;
                let end = pos.checked_add(len).ok_or(CodecError::Overflow)?;
                let slice = bytes.get(pos..end).ok_or(CodecError::UnexpectedEnd)?;
                let s = std::str::from_utf8(slice).map_err(|_| CodecError::BadUtf8)?;
                output.push(OutItem::Str(s.into()));
                pos = end;
            }
            tag => {
                return Err(CodecError::BadTag {
                    what: "output item",
                    tag,
                })
            }
        }
    }

    let constraints = decode_constraint_map(bytes, &mut pos)?;

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

#[cfg(test)]
mod tests {
    use super::*;
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
    }
}
