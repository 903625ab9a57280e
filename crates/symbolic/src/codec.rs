//! The workspace's one binary codec: the [`Codec`] trait, its leaf and
//! container impls, the [`codec_record!`](crate::codec_record) macro that
//! declares a record's wire order once, the sealed-record stream behind
//! the `SYCP` and `SYMO` files, and the state codec's leaf encoders for
//! the symbolic value domain.
//!
//! ## The trait
//!
//! A [`Codec`] type has exactly one encoding: `encode` appends it to a
//! buffer, `decode` reads it back at a cursor. The leaves are LEB128
//! varints for `u64`/`usize`/`u32` (a decoded value that does not fit
//! its type is [`CodecError::Overflow`]), zigzag varints for `i64`, two
//! varints (low half, then high) for `u128`, one byte for `bool` (0 or 1)
//! and for a register index, a varint byte length plus UTF-8 for
//! `String`, and whole seconds plus subsecond nanoseconds for
//! `Duration`. `u8` is one raw byte: the tag byte of a tagged enum.
//! `Option<T>` is a presence byte (as a `bool`) and then the value, a
//! pair is its two halves in order, and `Vec<T>` is a varint count and
//! then the elements.
//!
//! ## The macro
//!
//! [`codec_record!`](crate::codec_record) implements [`Codec`] for a
//! field-list struct or a tagged enum from one declaration of its wire
//! order. Enum tags are written out as constants: the tags are the
//! format.
//!
//! ## The pre-size bound
//!
//! A count is read before the elements it announces, so a hostile count
//! must not size an allocation. `Vec<T>` pre-allocates for at most
//! 64 KiB of elements, and grows past that only as elements actually
//! decode; a count the bytes cannot back fails at the first missing
//! element. (The machine state codec, the spill hot path, keeps its own
//! element caps.)
//!
//! ## Sealed records
//!
//! [`write_sealed_record`] frames one record as `[varint len][payload]
//! [FNV-128 seal, little-endian]`; [`read_sealed_records`] reads such a
//! stream to its end. The reader has one length bound (64 MiB), drops a
//! truncated trailing record (the signature of a crash mid-append) and
//! reports it, and refuses everything else by the offending record's
//! offset: a length over the bound or not a varint, a seal that does not
//! check, and a sealed payload that does not decode to exactly one
//! record. The checkpoint (`SYCP`) and memo-store (`SYMO`) formats are
//! a header plus this stream.
//!
//! ## Properties
//!
//! Every variant choice is a tag byte and every count a varint, so a
//! decoder never needs out-of-band length information, and a truncated or
//! corrupted buffer surfaces as a [`CodecError`] instead of a wrong value.
//! Decoding a constraint set *replays* its interval bounds and exclusions
//! through [`ConstraintSet::add`], so whatever the bytes say, the decoded
//! set is in the solver's normal form — malformed input can produce a
//! different set, never an invalid one. Decoding a constraint map
//! rebuilds the rolling digest and unsatisfiable-location caches entry by
//! entry, so decoded maps are indistinguishable from incrementally-built
//! ones.

use std::fmt;
use std::hash::Hasher as _;
use std::time::Duration;

use crate::{Constraint, ConstraintMap, ConstraintSet, Fnv128Hasher, Location, Value};
use sympl_asm::{Reg, NUM_REGS};

/// Decoding failure: the buffer does not describe a value of the expected
/// shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended inside a value.
    UnexpectedEnd,
    /// A tag byte had no matching variant.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A varint ran longer than its integer type allows.
    Overflow,
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// The buffer's version byte names an unknown codec revision.
    BadVersion(u8),
    /// The value has no wire representation (a closure-backed predicate).
    Unsupported(&'static str),
    /// A record's check does not match its bytes.
    BadCheck,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEnd => f.write_str("buffer ended inside a value"),
            CodecError::BadTag { what, tag } => write!(f, "bad {what} tag {tag:#04x}"),
            CodecError::Overflow => f.write_str("varint overflows its integer type"),
            CodecError::BadUtf8 => f.write_str("string field is not valid UTF-8"),
            CodecError::BadVersion(v) => write!(f, "unknown codec version {v}"),
            CodecError::Unsupported(what) => write!(f, "{what} has no wire representation"),
            CodecError::BadCheck => f.write_str("record check does not match its bytes"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A type with one binary encoding (see the module docs for the leaf and
/// container encodings).
pub trait Codec: Sized {
    /// Appends the value's encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decodes a value at `*pos`, advancing `*pos` past it.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] when the bytes at `*pos` are truncated or do
    /// not describe a value of this type.
    fn decode(bytes: &[u8], pos: &mut usize) -> Result<Self, CodecError>;
}

/// Implements [`Codec`](crate::codec::Codec) from one declaration of a
/// record's wire order.
///
/// A field-list struct names its fields in wire order; fields that are
/// not on the wire follow under `off_wire`, each with its decoded value.
/// A tagged enum names the subject of its [`CodecError::BadTag`], then
/// pairs each variant with its `u8` tag constant and names the variant's
/// fields in wire order. A field or variant added to the type and left
/// out of the declaration does not compile: the decoder builds every
/// field, and the encoder matches every variant.
///
/// ```
/// use sympl_symbolic::codec::Codec;
/// use sympl_symbolic::codec_record;
///
/// struct Probe { id: u64, label: String, hits: usize }
/// codec_record! {
///     struct Probe { id, label }
///     off_wire { hits: 0 }
/// }
///
/// const KIND_EMPTY: u8 = 0;
/// const KIND_PAIR: u8 = 1;
/// const KIND_NAMED: u8 = 2;
/// enum Kind { Empty, Pair(u32, bool), Named { name: String } }
/// codec_record! {
///     enum Kind as "kind" {
///         KIND_EMPTY => Empty,
///         KIND_PAIR => Pair(first, second),
///         KIND_NAMED => Named { name },
///     }
/// }
///
/// let mut buf = Vec::new();
/// Probe { id: 7, label: "x".into(), hits: 3 }.encode(&mut buf);
/// Kind::Pair(300, true).encode(&mut buf);
/// assert_eq!(buf, [7, 1, b'x', KIND_PAIR, 0xAC, 0x02, 1]);
/// let pos = &mut 0;
/// assert_eq!(Probe::decode(&buf, pos)?.hits, 0);
/// assert!(matches!(Kind::decode(&buf, pos)?, Kind::Pair(300, true)));
/// # Ok::<(), sympl_symbolic::CodecError>(())
/// ```
#[macro_export]
macro_rules! codec_record {
    (
        struct $ty:ident { $($field:ident),* $(,)? }
        $(off_wire { $($off:ident: $value:expr),* $(,)? })?
    ) => {
        impl $crate::codec::Codec for $ty {
            fn encode(&self, buf: &mut ::std::vec::Vec<u8>) {
                $($crate::codec::Codec::encode(&self.$field, buf);)*
            }

            fn decode(
                bytes: &[u8],
                pos: &mut usize,
            ) -> ::core::result::Result<Self, $crate::codec::CodecError> {
                ::core::result::Result::Ok($ty {
                    $($field: $crate::codec::Codec::decode(bytes, pos)?,)*
                    $($($off: $value,)*)?
                })
            }
        }
    };
    (
        enum $ty:ident as $what:literal {
            $($tag:ident => $variant:ident
                $(($($positional:ident),*))?
                $({$($named:ident),*})?),* $(,)?
        }
    ) => {
        impl $crate::codec::Codec for $ty {
            fn encode(&self, buf: &mut ::std::vec::Vec<u8>) {
                match self {
                    $($ty::$variant $(($($positional),*))? $({$($named),*})? => {
                        buf.push($tag);
                        $($($crate::codec::Codec::encode($positional, buf);)*)?
                        $($($crate::codec::Codec::encode($named, buf);)*)?
                    })*
                }
            }

            fn decode(
                bytes: &[u8],
                pos: &mut usize,
            ) -> ::core::result::Result<Self, $crate::codec::CodecError> {
                let tag = <u8 as $crate::codec::Codec>::decode(bytes, pos)?;
                ::core::result::Result::Ok(match tag {
                    $($tag => $ty::$variant
                        $(($({
                            let $positional = $crate::codec::Codec::decode(bytes, pos)?;
                            $positional
                        }),*))?
                        $({$($named: $crate::codec::Codec::decode(bytes, pos)?),*})?,)*
                    tag => {
                        return ::core::result::Result::Err(
                            $crate::codec::CodecError::BadTag { what: $what, tag },
                        )
                    }
                })
            }
        }
    };
}

/// The most bytes `Vec<T>::decode` reserves before its elements decode.
const PRESIZE_BYTES: usize = 64 << 10;

/// The largest payload [`read_sealed_records`] accepts (the wire's frame
/// cap: a checkpoint record is a `TaskDone` body).
const MAX_SEALED_RECORD_LEN: usize = 64 << 20;

// `decode_state` reads its tags and counts through the `u8` and `usize`
// impls from another crate: `#[inline]` keeps that hot path inlined.
impl Codec for u8 {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self);
    }

    #[inline]
    fn decode(bytes: &[u8], pos: &mut usize) -> Result<Self, CodecError> {
        let &b = bytes.get(*pos).ok_or(CodecError::UnexpectedEnd)?;
        *pos += 1;
        Ok(b)
    }
}

impl Codec for u64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        encode_u64(*self, buf);
    }

    fn decode(bytes: &[u8], pos: &mut usize) -> Result<Self, CodecError> {
        decode_u64(bytes, pos)
    }
}

impl Codec for usize {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        encode_u64(*self as u64, buf);
    }

    #[inline]
    fn decode(bytes: &[u8], pos: &mut usize) -> Result<Self, CodecError> {
        usize::try_from(decode_u64(bytes, pos)?).map_err(|_| CodecError::Overflow)
    }
}

impl Codec for u32 {
    fn encode(&self, buf: &mut Vec<u8>) {
        encode_u64(u64::from(*self), buf);
    }

    fn decode(bytes: &[u8], pos: &mut usize) -> Result<Self, CodecError> {
        u32::try_from(decode_u64(bytes, pos)?).map_err(|_| CodecError::Overflow)
    }
}

impl Codec for i64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        encode_i64(*self, buf);
    }

    fn decode(bytes: &[u8], pos: &mut usize) -> Result<Self, CodecError> {
        decode_i64(bytes, pos)
    }
}

impl Codec for u128 {
    fn encode(&self, buf: &mut Vec<u8>) {
        encode_u64(*self as u64, buf);
        encode_u64((*self >> 64) as u64, buf);
    }

    fn decode(bytes: &[u8], pos: &mut usize) -> Result<Self, CodecError> {
        let lo = decode_u64(bytes, pos)?;
        let hi = decode_u64(bytes, pos)?;
        Ok(u128::from(hi) << 64 | u128::from(lo))
    }
}

impl Codec for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }

    fn decode(bytes: &[u8], pos: &mut usize) -> Result<Self, CodecError> {
        match u8::decode(bytes, pos)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::BadTag { what: "bool", tag }),
        }
    }
}

impl Codec for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.len().encode(buf);
        buf.extend_from_slice(self.as_bytes());
    }

    fn decode(bytes: &[u8], pos: &mut usize) -> Result<Self, CodecError> {
        let len = usize::decode(bytes, pos)?;
        let end = pos.checked_add(len).ok_or(CodecError::Overflow)?;
        let slice = bytes.get(*pos..end).ok_or(CodecError::UnexpectedEnd)?;
        let s = std::str::from_utf8(slice).map_err(|_| CodecError::BadUtf8)?;
        *pos = end;
        Ok(s.to_owned())
    }
}

impl Codec for Duration {
    fn encode(&self, buf: &mut Vec<u8>) {
        encode_u64(self.as_secs(), buf);
        encode_u64(u64::from(self.subsec_nanos()), buf);
    }

    /// Errors with [`CodecError::Overflow`] when the nanosecond field
    /// reaches a billion (no encoder emits that).
    fn decode(bytes: &[u8], pos: &mut usize) -> Result<Self, CodecError> {
        let secs = decode_u64(bytes, pos)?;
        let nanos = decode_u64(bytes, pos)?;
        if nanos >= 1_000_000_000 {
            return Err(CodecError::Overflow);
        }
        Ok(Duration::new(secs, nanos as u32))
    }
}

impl Codec for Reg {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }

    fn decode(bytes: &[u8], pos: &mut usize) -> Result<Self, CodecError> {
        let idx = u8::decode(bytes, pos)?;
        if usize::from(idx) >= NUM_REGS {
            return Err(CodecError::BadTag {
                what: "register index",
                tag: idx,
            });
        }
        Ok(Reg::r(idx))
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.is_some().encode(buf);
        if let Some(v) = self {
            v.encode(buf);
        }
    }

    fn decode(bytes: &[u8], pos: &mut usize) -> Result<Self, CodecError> {
        if bool::decode(bytes, pos)? {
            Ok(Some(T::decode(bytes, pos)?))
        } else {
            Ok(None)
        }
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }

    fn decode(bytes: &[u8], pos: &mut usize) -> Result<Self, CodecError> {
        Ok((A::decode(bytes, pos)?, B::decode(bytes, pos)?))
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.len().encode(buf);
        for v in self {
            v.encode(buf);
        }
    }

    fn decode(bytes: &[u8], pos: &mut usize) -> Result<Self, CodecError> {
        let n = usize::decode(bytes, pos)?;
        let mut out = Vec::with_capacity(n.min(PRESIZE_BYTES / std::mem::size_of::<T>().max(1)));
        for _ in 0..n {
            out.push(T::decode(bytes, pos)?);
        }
        Ok(out)
    }
}

fn seal(payload: &[u8]) -> [u8; 16] {
    let mut h = Fnv128Hasher::new();
    h.write(payload);
    h.finish128().to_le_bytes()
}

/// Appends `record` to `out` as one sealed record: its encoding's varint
/// length, the encoding, and the encoding's FNV-128 seal (little-endian).
pub fn write_sealed_record<T: Codec>(record: &T, out: &mut Vec<u8>) {
    let mut payload = Vec::new();
    record.encode(&mut payload);
    payload.len().encode(out);
    out.extend_from_slice(&payload);
    out.extend_from_slice(&seal(&payload));
}

/// Reads the sealed records from `bytes[pos..]` to the end of `bytes`:
/// every intact record, and whether a truncated trailing record was
/// dropped.
///
/// # Errors
///
/// `Err(offset)` names the first record that is not intact and not a
/// truncated tail: a length that is not a varint or exceeds 64 MiB, a
/// seal that does not check, or a payload that does not decode to
/// exactly one `T`.
pub fn read_sealed_records<T: Codec>(
    bytes: &[u8],
    mut pos: usize,
) -> Result<(Vec<T>, bool), usize> {
    let mut records = Vec::new();
    while pos < bytes.len() {
        let start = pos;
        let len = match usize::decode(bytes, &mut pos) {
            Ok(len) if len <= MAX_SEALED_RECORD_LEN => len,
            Err(CodecError::UnexpectedEnd) => return Ok((records, true)),
            _ => return Err(start),
        };
        let Some(sealed) = bytes.get(pos..pos + len + 16) else {
            return Ok((records, true));
        };
        let (payload, digest) = sealed.split_at(len);
        if digest != seal(payload) {
            return Err(start);
        }
        let mut p = 0;
        match T::decode(payload, &mut p) {
            Ok(record) if p == len => records.push(record),
            _ => return Err(start),
        }
        pos += len + 16;
    }
    Ok((records, false))
}

// The varint, zigzag, value and location leaves below are the state
// codec's per-cell work, called from another crate in a build without LTO,
// so each is `#[inline]`. The decode leaves are `#[inline(always)]`:
// the state decoders are large functions, and with the plain hint some
// of their per-cell calls stayed out of line, which made a replace state
// decode about 1.3x slower.

/// Appends `v` as an LEB128 varint (7 bits per byte, high bit = continue).
#[inline]
pub fn encode_u64(mut v: u64, buf: &mut Vec<u8>) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Decodes an LEB128 varint at `*pos`, advancing it.
///
/// # Errors
///
/// [`CodecError::UnexpectedEnd`] when the buffer ends mid-varint,
/// [`CodecError::Overflow`] when the encoding exceeds 64 bits.
#[inline(always)]
pub fn decode_u64(bytes: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &byte = bytes.get(*pos).ok_or(CodecError::UnexpectedEnd)?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(CodecError::Overflow);
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Appends `v` as a zigzag-mapped varint (small magnitudes stay small).
#[inline]
pub fn encode_i64(v: i64, buf: &mut Vec<u8>) {
    encode_u64(zigzag(v), buf);
}

/// Decodes a zigzag varint at `*pos`, advancing it.
///
/// # Errors
///
/// Propagates the varint errors of [`decode_u64`].
#[inline(always)]
pub fn decode_i64(bytes: &[u8], pos: &mut usize) -> Result<i64, CodecError> {
    Ok(unzigzag(decode_u64(bytes, pos)?))
}

/// The zigzag map `0, -1, 1, -2, … → 0, 1, 2, 3, …`.
#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline(always)]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

const VALUE_INT: u8 = 0;
const VALUE_ERR: u8 = 1;

/// Appends a [`Value`]: a tag byte, then a zigzag varint for integers.
#[inline]
pub fn encode_value(v: Value, buf: &mut Vec<u8>) {
    match v {
        Value::Int(i) => {
            buf.push(VALUE_INT);
            encode_i64(i, buf);
        }
        Value::Err => buf.push(VALUE_ERR),
    }
}

/// Decodes a [`Value`] at `*pos`, advancing it.
///
/// # Errors
///
/// [`CodecError::BadTag`] on an unknown tag, plus the varint errors.
#[inline(always)]
pub fn decode_value(bytes: &[u8], pos: &mut usize) -> Result<Value, CodecError> {
    let &tag = bytes.get(*pos).ok_or(CodecError::UnexpectedEnd)?;
    *pos += 1;
    match tag {
        VALUE_INT => Ok(Value::Int(decode_i64(bytes, pos)?)),
        VALUE_ERR => Ok(Value::Err),
        tag => Err(CodecError::BadTag { what: "value", tag }),
    }
}

const LOC_REG: u8 = 0;
const LOC_MEM: u8 = 1;

/// Appends a [`Location`]: a tag byte, then a register index byte or a
/// varint address.
#[inline]
pub fn encode_location(loc: Location, buf: &mut Vec<u8>) {
    match loc {
        Location::Reg(r) => {
            buf.push(LOC_REG);
            buf.push(u8::from(r));
        }
        Location::Mem(a) => {
            buf.push(LOC_MEM);
            encode_u64(a, buf);
        }
    }
}

/// Decodes a [`Location`] at `*pos`, advancing it.
///
/// # Errors
///
/// [`CodecError::BadTag`] on an unknown tag or an out-of-file register
/// index, plus the varint errors.
#[inline(always)]
pub fn decode_location(bytes: &[u8], pos: &mut usize) -> Result<Location, CodecError> {
    let &tag = bytes.get(*pos).ok_or(CodecError::UnexpectedEnd)?;
    *pos += 1;
    match tag {
        LOC_REG => {
            let &idx = bytes.get(*pos).ok_or(CodecError::UnexpectedEnd)?;
            *pos += 1;
            if usize::from(idx) >= NUM_REGS {
                return Err(CodecError::BadTag {
                    what: "register index",
                    tag: idx,
                });
            }
            Ok(Location::Reg(Reg::r(idx)))
        }
        LOC_MEM => Ok(Location::Mem(decode_u64(bytes, pos)?)),
        tag => Err(CodecError::BadTag {
            what: "location",
            tag,
        }),
    }
}

/// Appends a [`ConstraintSet`] in its normal form: zigzag `lo`, zigzag
/// `hi`, then the exclusion count and each excluded point.
pub fn encode_constraint_set(set: &ConstraintSet, buf: &mut Vec<u8>) {
    encode_i64(set.lower(), buf);
    encode_i64(set.upper(), buf);
    let exclusions = set.exclusions();
    encode_u64(exclusions.len() as u64, buf);
    for x in exclusions {
        encode_i64(x, buf);
    }
}

/// Decodes a [`ConstraintSet`] at `*pos` by **replaying** the encoded
/// bounds and exclusions through [`ConstraintSet::add`], so the result is
/// always in the solver's normal form — a well-formed encoding round-trips
/// exactly, and adversarial bytes can only produce a *different* normalized
/// set, never an un-normalized one.
///
/// # Errors
///
/// Propagates the varint errors.
pub fn decode_constraint_set(bytes: &[u8], pos: &mut usize) -> Result<ConstraintSet, CodecError> {
    let lo = decode_i64(bytes, pos)?;
    let hi = decode_i64(bytes, pos)?;
    let n = decode_u64(bytes, pos)?;
    let mut set = ConstraintSet::new();
    if lo != i64::MIN {
        set.add(Constraint::Ge(lo));
    }
    if hi != i64::MAX {
        set.add(Constraint::Le(hi));
    }
    for _ in 0..n {
        set.add(Constraint::Ne(decode_i64(bytes, pos)?));
    }
    Ok(set)
}

/// Appends a [`ConstraintMap`]: an entry count, then `(location, set)`
/// pairs in the map's canonical location order.
pub fn encode_constraint_map(map: &ConstraintMap, buf: &mut Vec<u8>) {
    encode_u64(map.len() as u64, buf);
    for (loc, set) in map.iter() {
        encode_location(loc, buf);
        encode_constraint_set(set, buf);
    }
}

/// Decodes a [`ConstraintMap`] at `*pos`, rebuilding the map's rolling
/// digest and unsatisfiable-location caches from the decoded entries, so a
/// decoded map is indistinguishable (including its O(1)
/// `digest`/`is_satisfiable`) from one built through the normal mutators.
///
/// Entries out of location order (never written by
/// [`encode_constraint_map`], but the bytes may come off the wire) are
/// sorted once, and a later entry for a location replaces an earlier one,
/// so decoding stays O(n log n) on any input.
///
/// # Errors
///
/// Propagates the leaf decoding errors.
pub fn decode_constraint_map(bytes: &[u8], pos: &mut usize) -> Result<ConstraintMap, CodecError> {
    let n = decode_u64(bytes, pos)?;
    // An entry takes at least five bytes, which bounds the reservation by
    // the bytes actually present rather than by the claimed count.
    let cap = usize::try_from(n).unwrap_or(usize::MAX);
    let mut entries = Vec::with_capacity(cap.min(bytes.len().saturating_sub(*pos) / 5));
    let mut ascending = true;
    for _ in 0..n {
        let loc = decode_location(bytes, pos)?;
        let set = decode_constraint_set(bytes, pos)?;
        ascending &= entries.last().is_none_or(|&(prev, _)| prev < loc);
        entries.push((loc, set));
    }
    if !ascending {
        // Reversed, a stable sort puts the last entry for each location
        // first in its run, and `dedup_by_key` keeps the first.
        entries.reverse();
        entries.sort_by_key(|&(loc, _)| loc);
        entries.dedup_by_key(|&mut (loc, _)| loc);
    }
    Ok(ConstraintMap::from_sorted(entries))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_u64(v: u64) -> u64 {
        let mut buf = Vec::new();
        encode_u64(v, &mut buf);
        let mut pos = 0;
        let out = decode_u64(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len(), "whole encoding consumed");
        out
    }

    #[test]
    fn varints_roundtrip_across_magnitudes() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u64::MAX - 1,
            u64::MAX,
        ] {
            assert_eq!(roundtrip_u64(v), v);
        }
        for v in [0i64, 1, -1, 63, -64, 1 << 40, i64::MIN, i64::MAX] {
            let mut buf = Vec::new();
            encode_i64(v, &mut buf);
            let mut pos = 0;
            assert_eq!(decode_i64(&buf, &mut pos).unwrap(), v);
        }
    }

    #[test]
    fn small_magnitudes_stay_small() {
        let mut buf = Vec::new();
        encode_i64(-3, &mut buf);
        assert_eq!(buf.len(), 1, "zigzag keeps small negatives one byte");
        buf.clear();
        encode_u64(127, &mut buf);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn truncated_and_overlong_varints_error() {
        assert_eq!(
            decode_u64(&[0x80, 0x80], &mut 0),
            Err(CodecError::UnexpectedEnd)
        );
        let overlong = [0xFFu8; 11];
        assert_eq!(decode_u64(&overlong, &mut 0), Err(CodecError::Overflow));
    }

    fn roundtrip<T: Codec + PartialEq + fmt::Debug>(v: &T) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        let mut pos = 0;
        assert_eq!(&T::decode(&buf, &mut pos).unwrap(), v);
        assert_eq!(pos, buf.len(), "whole encoding consumed");
    }

    #[test]
    fn scalar_leaves_roundtrip() {
        roundtrip(&true);
        roundtrip(&false);
        roundtrip(&"héllo".to_string());
        roundtrip(&String::new());
        roundtrip(&Duration::new(u64::MAX, 999_999_999));
        roundtrip(&None::<Duration>);
        roundtrip(&Some(Duration::from_millis(1500)));
        roundtrip(&u128::MAX);
        roundtrip(&(u32::MAX, usize::MAX));
        roundtrip(&vec![i64::MIN, -1, 0, i64::MAX]);
        roundtrip(&vec![Some(Reg::r(31)), None]);
    }

    #[test]
    fn scalar_leaves_reject_malformed_bytes() {
        assert!(matches!(
            bool::decode(&[7], &mut 0),
            Err(CodecError::BadTag { what: "bool", .. })
        ));
        // String length runs past the buffer.
        let mut buf = Vec::new();
        encode_u64(100, &mut buf);
        buf.push(b'x');
        assert_eq!(String::decode(&buf, &mut 0), Err(CodecError::UnexpectedEnd));
        // Invalid UTF-8 payload.
        let bad = [1u8, 0xFF];
        assert_eq!(String::decode(&bad, &mut 0), Err(CodecError::BadUtf8));
        // Nanoseconds out of range.
        let mut buf = Vec::new();
        encode_u64(0, &mut buf);
        encode_u64(1_000_000_000, &mut buf);
        assert_eq!(Duration::decode(&buf, &mut 0), Err(CodecError::Overflow));
        // A varint too wide for its type.
        let mut buf = Vec::new();
        encode_u64(u64::from(u32::MAX) + 1, &mut buf);
        assert_eq!(u32::decode(&buf, &mut 0), Err(CodecError::Overflow));
        // A count the bytes cannot back fails at the first missing element.
        let mut buf = Vec::new();
        encode_u64(1 << 40, &mut buf);
        buf.push(2);
        assert_eq!(
            Vec::<i64>::decode(&buf, &mut 0),
            Err(CodecError::UnexpectedEnd)
        );
    }

    const SHAPE_DOT: u8 = 0;
    const SHAPE_LINE: u8 = 1;
    const SHAPE_BOX: u8 = 2;

    #[derive(Debug, PartialEq)]
    enum Shape {
        Dot,
        Line(u64, i64),
        Box { corner: Reg, sides: Vec<u32> },
    }

    crate::codec_record! {
        enum Shape as "shape" {
            SHAPE_DOT => Dot,
            SHAPE_LINE => Line(len, offset),
            SHAPE_BOX => Box { corner, sides },
        }
    }

    #[derive(Debug, PartialEq)]
    struct Sketch {
        name: String,
        shapes: Vec<Shape>,
        scratch: usize,
    }

    crate::codec_record! {
        struct Sketch { name, shapes }
        off_wire { scratch: 0 }
    }

    #[test]
    fn records_encode_their_fields_in_declared_order() {
        let sketch = Sketch {
            name: "s".into(),
            shapes: vec![
                Shape::Dot,
                Shape::Line(3, -1),
                Shape::Box {
                    corner: Reg::r(2),
                    sides: vec![4],
                },
            ],
            scratch: 0,
        };
        let mut buf = Vec::new();
        sketch.encode(&mut buf);
        assert_eq!(
            buf,
            [1, b's', 3, SHAPE_DOT, SHAPE_LINE, 3, 1, SHAPE_BOX, 2, 1, 4]
        );
        roundtrip(&sketch);
        assert!(matches!(
            Shape::decode(&[9], &mut 0),
            Err(CodecError::BadTag {
                what: "shape",
                tag: 9
            })
        ));
    }

    fn sealed_stream(records: &[(u64, String)]) -> Vec<u8> {
        let mut out = b"HDR".to_vec();
        for r in records {
            write_sealed_record(r, &mut out);
        }
        out
    }

    #[test]
    fn sealed_records_roundtrip_and_drop_only_a_truncated_tail() {
        let records = vec![(1, "one".to_string()), (2, String::new()), (3, "x".into())];
        let bytes = sealed_stream(&records);
        assert_eq!(
            read_sealed_records::<(u64, String)>(&bytes, 3),
            Ok((records.clone(), false))
        );
        // Record boundaries: a length byte, the payload, a 16-byte seal.
        let boundaries = [3, 3 + 1 + 5 + 16, 3 + 1 + 5 + 16 + 1 + 2 + 16];
        for cut in 3..bytes.len() {
            let (read, truncated) = read_sealed_records::<(u64, String)>(&bytes[..cut], 3).unwrap();
            assert_eq!(truncated, !boundaries.contains(&cut));
            assert_eq!(read[..], records[..read.len()]);
        }
    }

    #[test]
    fn sealed_records_refuse_corruption_by_offset() {
        let records = vec![(1u64, "one".to_string()), (2, "two".into())];
        let bytes = sealed_stream(&records);
        let second = 3 + 1 + 5 + 16;
        // A flipped payload byte fails its seal.
        let mut flipped = bytes.clone();
        flipped[second + 2] ^= 1;
        assert_eq!(
            read_sealed_records::<(u64, String)>(&flipped, 3),
            Err(second)
        );
        // A length over the bound.
        let mut long = bytes[..second].to_vec();
        encode_u64(64 << 20 | 1, &mut long);
        assert_eq!(read_sealed_records::<(u64, String)>(&long, 3), Err(second));
        // A correctly sealed payload that is not one record.
        let mut forged = bytes[..second].to_vec();
        write_sealed_record(&vec![0xFFu8; 3], &mut forged);
        assert_eq!(
            read_sealed_records::<(u64, String)>(&forged, 3),
            Err(second)
        );
    }

    #[test]
    fn values_and_locations_roundtrip() {
        let mut buf = Vec::new();
        for v in [
            Value::Int(0),
            Value::Int(-77),
            Value::Int(i64::MAX),
            Value::Err,
        ] {
            buf.clear();
            encode_value(v, &mut buf);
            assert_eq!(decode_value(&buf, &mut 0).unwrap(), v);
        }
        for loc in [
            Location::reg(0),
            Location::reg(31),
            Location::Mem(0),
            Location::Mem(u64::MAX),
        ] {
            buf.clear();
            encode_location(loc, &mut buf);
            assert_eq!(decode_location(&buf, &mut 0).unwrap(), loc);
        }
        assert!(matches!(
            decode_value(&[9], &mut 0),
            Err(CodecError::BadTag { what: "value", .. })
        ));
        assert!(matches!(
            decode_location(&[LOC_REG, 32], &mut 0),
            Err(CodecError::BadTag {
                what: "register index",
                ..
            })
        ));
    }

    #[test]
    fn constraint_sets_roundtrip_exactly() {
        let sets: Vec<ConstraintSet> = vec![
            ConstraintSet::new(),
            [Constraint::Gt(0), Constraint::Le(5), Constraint::Ne(2)]
                .into_iter()
                .collect(),
            [Constraint::Gt(5), Constraint::Lt(5)].into_iter().collect(), // unsat
            [Constraint::Eq(42)].into_iter().collect(),
            [Constraint::Ne(i64::MIN)].into_iter().collect(),
            [Constraint::Gt(i64::MAX)].into_iter().collect(), // forced empty
        ];
        for set in sets {
            let mut buf = Vec::new();
            encode_constraint_set(&set, &mut buf);
            let mut pos = 0;
            let decoded = decode_constraint_set(&buf, &mut pos).unwrap();
            assert_eq!(pos, buf.len());
            assert_eq!(decoded, set, "normal form must round-trip exactly");
        }
    }

    #[test]
    fn constraint_maps_roundtrip_with_live_caches() {
        let mut map = ConstraintMap::new();
        assert!(map.constrain(Location::reg(3), Constraint::Gt(0)));
        assert!(map.constrain(Location::reg(3), Constraint::Le(9)));
        assert!(map.constrain(Location::Mem(64), Constraint::Ne(7)));
        // Drive one location unsatisfiable so the unsat cache is non-zero.
        assert!(map.constrain(Location::reg(5), Constraint::Gt(2)));
        assert!(!map.constrain(Location::reg(5), Constraint::Lt(2)));

        let mut buf = Vec::new();
        encode_constraint_map(&map, &mut buf);
        let mut pos = 0;
        let decoded = decode_constraint_map(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(decoded, map);
        assert_eq!(decoded.digest(), map.digest(), "rolling digest rebuilt");
        assert_eq!(decoded.digest(), decoded.refold_digest());
        assert_eq!(decoded.is_satisfiable(), map.is_satisfiable());
    }

    #[test]
    fn out_of_order_maps_decode_sorted_in_one_pass() {
        // 200 000 descending entries, then a repeat of the first location
        // with an unsatisfiable set. Inserting each entry into place would
        // shift the whole map every time (about 10^12 bytes moved here);
        // one sort finishes well inside the bound.
        let n = 200_000u64;
        let eq = |v: i64| {
            let mut set = ConstraintSet::new();
            set.add(Constraint::Eq(v));
            set
        };
        let mut unsat = ConstraintSet::new();
        unsat.add(Constraint::Gt(2));
        unsat.add(Constraint::Lt(2));
        let top = Location::Mem((n - 1) * 8);
        let mut buf = Vec::new();
        encode_u64(n + 1, &mut buf);
        for i in (0..n).rev() {
            encode_location(Location::Mem(i * 8), &mut buf);
            encode_constraint_set(&eq(i as i64), &mut buf);
        }
        encode_location(top, &mut buf);
        encode_constraint_set(&unsat, &mut buf);

        let start = std::time::Instant::now();
        let mut pos = 0;
        let decoded = decode_constraint_map(&buf, &mut pos).unwrap();
        let took = start.elapsed();
        assert!(took < std::time::Duration::from_secs(10), "took {took:?}");
        assert_eq!(pos, buf.len());

        let mut expected = ConstraintMap::new();
        for i in 0..n - 1 {
            assert!(expected.constrain(Location::Mem(i * 8), Constraint::Eq(i as i64)));
        }
        assert!(expected.constrain(top, Constraint::Gt(2)));
        assert!(!expected.constrain(top, Constraint::Lt(2)));
        assert_eq!(decoded, expected, "sorted, and the later duplicate wins");
        assert_eq!(decoded.digest(), expected.digest());
        assert!(!decoded.is_satisfiable());
    }

    #[test]
    fn empty_map_is_one_byte() {
        let mut buf = Vec::new();
        encode_constraint_map(&ConstraintMap::new(), &mut buf);
        assert_eq!(buf, vec![0]);
        let decoded = decode_constraint_map(&buf, &mut 0).unwrap();
        assert!(decoded.is_empty());
    }
}
