//! The integer and bit columns everything core writes is made of: the wire
//! frames ([`crate::wire`]), the recovery messages ([`crate::msg`]) and the
//! DFS snapshots and edge-ckpt files ([`crate::ckpt`]). Each primitive is
//! defined once, here, so a layout decision is made in one place; the one
//! exception is a full state's edge lists, whose runs the engine defines
//! ([`imitator_engine::Run`]) because a mirror stores them in that form.
//!
//! * a **count**: a uvarint held to the input that remains — every counted
//!   record costs at least a byte, so a larger count is corruption, caught
//!   before anything is sized from it;
//! * a `u32`, vertex ID or [`NodeId`]: a uvarint (LEB128), as is a `u64`;
//! * a **delta column**: each value the zigzag uvarint of its step from the
//!   one before it (the first from 0), so ascending or clustered IDs and
//!   positions take about a byte;
//! * a **bit column**: `k` bits per record (`k` is 1, 2 or 4), LSB-first,
//!   ⌈k·n/8⌉ bytes; the padding bits of the last byte are zero.

use imitator_cluster::NodeId;
use imitator_storage::codec::{
    read_uvarint, unzigzag64, write_uvarint, zigzag64, DecodeError, Reader, Sink,
};

pub(crate) fn enc_u64<S: Sink>(v: u64, out: &mut S) {
    write_uvarint(out, v);
}

pub(crate) fn dec_u64(r: &mut Reader<'_>) -> Result<u64, DecodeError> {
    read_uvarint(r)
}

pub(crate) fn enc_count<S: Sink>(n: usize, out: &mut S) {
    write_uvarint(out, n as u64);
}

pub(crate) fn dec_count(r: &mut Reader<'_>) -> Result<usize, DecodeError> {
    let n = read_uvarint(r)?;
    if n > r.remaining() as u64 {
        return Err(DecodeError::Corrupt("count exceeds input"));
    }
    Ok(n as usize)
}

pub(crate) fn enc_u32<S: Sink>(v: u32, out: &mut S) {
    write_uvarint(out, u64::from(v));
}

pub(crate) fn dec_u32(r: &mut Reader<'_>) -> Result<u32, DecodeError> {
    u32::try_from(read_uvarint(r)?).map_err(|_| DecodeError::Corrupt("varint exceeds u32"))
}

pub(crate) fn enc_node<S: Sink>(n: NodeId, out: &mut S) {
    enc_u32(n.raw(), out);
}

pub(crate) fn dec_node(r: &mut Reader<'_>) -> Result<NodeId, DecodeError> {
    Ok(NodeId::new(dec_u32(r)?))
}

/// Writes `cur` as the zigzag uvarint of its step from `prev`, advancing
/// `prev`: one entry of a delta column.
pub(crate) fn enc_delta<S: Sink>(cur: u32, prev: &mut u32, out: &mut S) {
    write_uvarint(out, zigzag64(i64::from(cur) - i64::from(*prev)));
    *prev = cur;
}

pub(crate) fn dec_delta(r: &mut Reader<'_>, prev: &mut u32) -> Result<u32, DecodeError> {
    let cur = i64::from(*prev)
        .checked_add(unzigzag64(read_uvarint(r)?))
        .and_then(|cur| u32::try_from(cur).ok())
        .ok_or(DecodeError::Corrupt("delta column"))?;
    *prev = cur;
    Ok(cur)
}

/// Writes a whole delta column.
pub(crate) fn enc_deltas<S: Sink>(column: impl IntoIterator<Item = u32>, out: &mut S) {
    let mut prev = 0;
    for v in column {
        enc_delta(v, &mut prev, out);
    }
}

/// Reads a delta column of `n` entries; the caller has held `n` to the
/// input ([`dec_count`]).
pub(crate) fn dec_deltas(r: &mut Reader<'_>, n: usize) -> Result<Vec<u32>, DecodeError> {
    let mut prev = 0;
    let mut column = Vec::with_capacity(n);
    for _ in 0..n {
        column.push(dec_delta(r, &mut prev)?);
    }
    Ok(column)
}

/// Writes a bit column of `k` bits per record, each record's bits the low
/// `k` of its item.
pub(crate) fn enc_bits<S: Sink>(k: usize, records: impl IntoIterator<Item = u8>, out: &mut S) {
    let (mut byte, mut at) = (0u8, 0);
    for bits in records {
        byte |= bits << at;
        at += k;
        if at == 8 {
            out.put_byte(byte);
            (byte, at) = (0, 0);
        }
    }
    if at > 0 {
        out.put_byte(byte);
    }
}

/// A bit column as read: [`Bits::get`] gives a record's `k` bits.
pub(crate) struct Bits<'a> {
    bytes: &'a [u8],
    k: usize,
}

impl Bits<'_> {
    pub(crate) fn get(&self, i: usize) -> u8 {
        let at = self.k * i;
        (self.bytes[at / 8] >> (at % 8)) & ((1 << self.k) - 1)
    }
}

/// Reads a bit column of `n` records, `k` bits apiece; the caller has held
/// `n` to the input. Nonzero padding is corruption.
pub(crate) fn dec_bits<'a>(
    r: &mut Reader<'a>,
    k: usize,
    n: usize,
) -> Result<Bits<'a>, DecodeError> {
    let bytes = r.take((k * n).div_ceil(8))?;
    let used = k * n % 8;
    if used > 0 && bytes[bytes.len() - 1] >> used != 0 {
        return Err(DecodeError::Corrupt("bit column padding"));
    }
    Ok(Bits { bytes, k })
}
