//! Columnar batch wire frames.
//!
//! The scalar codec charged every sync record a fixed `pos:u32 flags:u8`
//! header next to its value; at millions of records per superstep the
//! headers rival the payloads. This module frames the two per-superstep
//! protocol messages — vertex syncs and gather contributions — as
//! **columnar frames**: one header per frame, then each field packed
//! contiguously across all records, with positions/vertex-IDs stored as
//! zigzag-varint deltas between consecutive records and per-record flags
//! packed two bits apiece into a bitmap.
//!
//! ```text
//! sync frame   : tag:0xB1  count:uvarint  flags:⌈2n/8⌉B  pos-column  value-column
//!   pos column  : n × uvarint(zigzag(pos_i − pos_{i−1}))   (pos_{−1} = 0)
//!   value column: full  → the value's own self-delimiting encoding
//!                 delta → uvarint(start) uvarint(len) span-bytes
//!   flags       : bit 0 activate, bit 1 delta (LSB-first, 4 records/byte)
//! gather frame : tag:0xB2  count:uvarint  vid-column  accum-column
//! ```
//!
//! The delta layout of the value column is part of the format and nothing
//! more: no sender keeps the per-destination base a span would need, so
//! every record the program stages carries `span: None` and ships its full
//! value (DESIGN.md §4.1). The encoder honours a span it is handed iff the
//! delta is no larger than the full encoding.
//!
//! Determinism: record order within a frame is the staging order (ascending
//! master position, fixed destination iteration), a pure function of the
//! committed graph state — independent of thread count. The driver stages a
//! phase's records once all its compute chunks are in and ships one frame
//! per destination per superstep, charged what it encodes to
//! ([`imitator_storage::codec::Encode::encoded_len`]), so the bytes charged
//! are the bytes TCP writes.

use imitator_storage::codec::{
    read_uvarint, uvarint_len, write_uvarint, zigzag64, Decode, DecodeError, Encode, Reader, Sink,
};

use crate::ckpt::{dec_count, dec_delta};

/// Frame tag of a columnar vertex-sync batch.
pub const SYNC_FRAME_TAG: u8 = 0xB1;
/// Frame tag of a columnar gather batch.
pub const GATHER_FRAME_TAG: u8 = 0xB2;

/// Value-column bytes of one record as the encoder lays it out, and whether
/// that is the delta layout: delta iff a span is given and no larger than
/// the full encoding.
fn value_column_bytes(value_len: usize, span: Option<(u16, u16)>) -> (u64, bool) {
    if let Some((start, len)) = span {
        let d = uvarint_len(u64::from(start)) + uvarint_len(u64::from(len)) + len as usize;
        if d <= value_len {
            return (d as u64, true);
        }
    }
    (value_len as u64, false)
}

/// One sync record presented to the frame encoder. The frozen
/// `benchmark/src/layers.rs` builds it field by field, `span: None` included.
pub struct SyncRecEnc<'a> {
    /// Master position on the destination node.
    pub pos: u32,
    /// Scatter/activate bit for the replica.
    pub activate: bool,
    /// Full codec encoding of the new value.
    pub value: &'a [u8],
    /// The byte span of `value` that differs from what the destination
    /// holds, as `(start, len)`. The program always passes `None`.
    pub span: Option<(u16, u16)>,
}

/// One decoded sync record.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncRecDec<V> {
    /// Master position on the destination node.
    pub pos: u32,
    /// Scatter/activate bit for the replica.
    pub activate: bool,
    /// Reconstructed value (delta payloads patched into the base).
    pub value: V,
}

/// Writes everything of a sync frame but its value column — tag, count,
/// flag bitmap and position column — for `n` records, `rec(i)` giving
/// record `i`'s position and flag bits.
pub(crate) fn put_sync_head<S: Sink>(out: &mut S, n: usize, rec: impl Fn(usize) -> (u32, u8)) {
    out.put_byte(SYNC_FRAME_TAG);
    write_uvarint(out, n as u64);
    for first in (0..n).step_by(4) {
        let flags = (first..n.min(first + 4)).map(|i| rec(i).1 << (2 * (i % 4)));
        out.put_byte(flags.fold(0, |byte, f| byte | f));
    }
    let mut prev = 0u32;
    for i in 0..n {
        let pos = rec(i).0;
        write_uvarint(out, zigzag64(i64::from(pos) - i64::from(prev)));
        prev = pos;
    }
}

/// Encodes a columnar sync frame into `out` (appended; callers reuse the
/// buffer across frames to stay allocation-free in steady state). The frozen
/// `benchmark/src/layers.rs` calls it with this signature.
pub fn encode_sync_frame(recs: &[SyncRecEnc<'_>], out: &mut Vec<u8>) {
    let delta = |r: &SyncRecEnc<'_>| {
        r.span
            .filter(|_| value_column_bytes(r.value.len(), r.span).1)
    };
    put_sync_head(out, recs.len(), |i| {
        let r = &recs[i];
        (
            r.pos,
            u8::from(r.activate) | u8::from(delta(r).is_some()) << 1,
        )
    });
    for r in recs {
        match delta(r) {
            Some((start, len)) => {
                write_uvarint(out, u64::from(start));
                write_uvarint(out, u64::from(len));
                out.put(&r.value[start as usize..(start + len) as usize]);
            }
            None => out.put(r.value),
        }
    }
}

/// Decodes a columnar sync frame, resolving delta payloads against `base`
/// (the destination's current encoded value at that position). The frozen
/// `benchmark/src/layers.rs` calls it with this signature.
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncated or corrupt input, a delta span
/// that does not fit its base among them; what it reserves stays within a
/// constant of the input's size.
pub fn decode_sync_frame<V: Decode>(
    bytes: &[u8],
    mut base: impl FnMut(u32) -> Vec<u8>,
) -> Result<Vec<SyncRecDec<V>>, DecodeError> {
    let mut r = Reader::new(bytes);
    if r.take(1)?[0] != SYNC_FRAME_TAG {
        return Err(DecodeError::Corrupt("sync frame tag"));
    }
    // Every record holds at least one byte of the position column.
    let count = dec_count(&mut r)?;
    let bitmap = r.take((2 * count).div_ceil(8))?;
    let mut positions = Vec::with_capacity(count);
    let mut prev = 0u32;
    for _ in 0..count {
        positions.push(dec_delta(&mut r, &mut prev)?);
    }
    let mut out = Vec::with_capacity(count);
    for (i, &pos) in positions.iter().enumerate() {
        let flags = (bitmap[i / 4] >> (2 * (i % 4))) & 0b11;
        let value = if flags & 2 != 0 {
            let start = read_uvarint(&mut r)? as usize;
            let len = read_uvarint(&mut r)? as usize;
            let span = r.take(len)?;
            let mut full = base(pos);
            let end = start.checked_add(len).filter(|&end| end <= full.len());
            let end = end.ok_or(DecodeError::Corrupt("delta span exceeds base value"))?;
            full[start..end].copy_from_slice(span);
            imitator_storage::codec::decode::<V>(&full)?
        } else {
            V::decode(&mut r)?
        };
        out.push(SyncRecDec {
            pos,
            activate: flags & 1 != 0,
            value,
        });
    }
    if r.remaining() > 0 {
        return Err(DecodeError::TrailingBytes(r.remaining()));
    }
    Ok(out)
}

/// Encodes a columnar gather frame of `(vid, accumulator)` records: vid
/// column (zigzag deltas) then the accumulator column.
pub fn encode_gather_frame<'a, A: Encode + 'a, S: Sink>(
    recs: impl ExactSizeIterator<Item = (u32, &'a A)> + Clone,
    out: &mut S,
) {
    out.put_byte(GATHER_FRAME_TAG);
    write_uvarint(out, recs.len() as u64);
    let mut prev = 0u32;
    for (vid, _) in recs.clone() {
        write_uvarint(out, zigzag64(i64::from(vid) - i64::from(prev)));
        prev = vid;
    }
    for (_, a) in recs {
        a.encode(out);
    }
}

/// Decodes a columnar gather frame.
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncated or corrupt input; what it reserves
/// stays within a constant of the input's size.
pub fn decode_gather_frame<A: Decode>(bytes: &[u8]) -> Result<Vec<(u32, A)>, DecodeError> {
    let mut r = Reader::new(bytes);
    if r.take(1)?[0] != GATHER_FRAME_TAG {
        return Err(DecodeError::Corrupt("gather frame tag"));
    }
    // Every record holds at least one byte of the vid column.
    let count = dec_count(&mut r)?;
    let mut vids = Vec::with_capacity(count);
    let mut prev = 0u32;
    for _ in 0..count {
        vids.push(dec_delta(&mut r, &mut prev)?);
    }
    let mut out = Vec::with_capacity(count);
    for vid in vids {
        out.push((vid, A::decode(&mut r)?));
    }
    if r.remaining() > 0 {
        return Err(DecodeError::TrailingBytes(r.remaining()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ckpt::tests::{arb_damage, damaged};
    use proptest::prelude::*;

    fn gather_frame<A: Encode>(recs: &[(u32, A)]) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_gather_frame(recs.iter().map(|(vid, a)| (*vid, a)), &mut buf);
        buf
    }

    #[test]
    fn delta_chosen_only_when_no_larger_than_full() {
        // f64-sized value (8 bytes): delta = 2 varints + span.
        assert_eq!(value_column_bytes(8, Some((0, 2))), (4, true));
        assert_eq!(value_column_bytes(8, Some((0, 6))), (8, true)); // tie → delta
        assert_eq!(
            value_column_bytes(8, Some((0, 7))),
            (8, false),
            "larger → full"
        );
        // u32-sized value: only tiny spans win.
        assert_eq!(value_column_bytes(4, Some((0, 0))), (2, true));
        assert_eq!(value_column_bytes(4, Some((1, 3))), (4, false));
        assert_eq!(value_column_bytes(4, None), (4, false));
    }

    #[test]
    fn sync_frame_roundtrips_deltas_against_base() {
        let old = 0x0101_0101_0101_0101u64;
        let new = 0x0101_0109_0901_0101u64;
        let (ob, nb) = (old.to_le_bytes(), new.to_le_bytes());
        let recs = vec![
            SyncRecEnc {
                pos: 9,
                activate: true,
                value: &nb,
                span: Some((3, 2)),
            },
            SyncRecEnc {
                pos: 2,
                activate: false,
                value: &nb,
                span: None,
            },
        ];
        let mut buf = Vec::new();
        encode_sync_frame(&recs, &mut buf);
        let out: Vec<SyncRecDec<u64>> = decode_sync_frame(&buf, |pos| {
            assert_eq!(pos, 9, "only the delta record consults the base");
            ob.to_vec()
        })
        .unwrap();
        assert_eq!(
            out,
            vec![
                SyncRecDec {
                    pos: 9,
                    activate: true,
                    value: new
                },
                SyncRecDec {
                    pos: 2,
                    activate: false,
                    value: new
                },
            ]
        );
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        assert!(decode_sync_frame::<u32>(&[GATHER_FRAME_TAG], |_| vec![]).is_err());
        assert!(decode_gather_frame::<u32>(&[SYNC_FRAME_TAG]).is_err());
        let mut buf = gather_frame::<u32>(&[(1, 5)]);
        buf.push(0); // trailing byte
        assert!(matches!(
            decode_gather_frame::<u32>(&buf),
            Err(DecodeError::TrailingBytes(_))
        ));
        // Delta span wider than the receiver's base value.
        let nb = 7u64.to_le_bytes();
        let recs = vec![SyncRecEnc {
            pos: 0,
            activate: false,
            value: &nb,
            span: Some((0, 3)),
        }];
        let mut buf = Vec::new();
        encode_sync_frame(&recs, &mut buf);
        assert!(decode_sync_frame::<u64>(&buf, |_| vec![0u8; 2]).is_err());
        // A delta flag with no base behind it: what a socket's receiver has.
        assert!(decode_sync_frame::<u64>(&buf, |_| Vec::new()).is_err());
        // A span whose end overflows.
        let mut buf = vec![SYNC_FRAME_TAG, 1, 0b10, 0];
        write_uvarint(&mut buf, u64::MAX);
        buf.extend([1, 0xAB]);
        assert!(decode_sync_frame::<u64>(&buf, |_| vec![0u8; 8]).is_err());
        // A position step past every position, and one past `i64`.
        for step in [u64::from(u32::MAX) * 2, u64::MAX - 1] {
            let mut buf = vec![SYNC_FRAME_TAG, 2, 0];
            write_uvarint(&mut buf, zigzag64(5));
            write_uvarint(&mut buf, step);
            buf.extend([0u8; 16]);
            assert!(decode_sync_frame::<u64>(&buf, |_| Vec::new()).is_err());
            let mut buf = vec![GATHER_FRAME_TAG, 2];
            write_uvarint(&mut buf, zigzag64(5));
            write_uvarint(&mut buf, step);
            buf.extend([0u8; 16]);
            assert!(decode_gather_frame::<u64>(&buf).is_err());
        }
    }

    /// One generated record: (pos, activate, new value bytes, the base the
    /// destination holds, the span handed to the encoder).
    type GenRec = (u32, bool, [u8; 8], [u8; 8], Option<(u16, u16)>);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary batches ⇄ bytes ⇄ batches, full and delta payloads.
        #[test]
        fn columnar_codec_roundtrip(
            batch in proptest::collection::vec(
                (
                    0u32..200_000,
                    any::<bool>(),
                    any::<u64>(),
                    any::<u64>(),
                    proptest::option::of((0u16..=8, 0u16..=8)),
                ),
                0..64,
            )
        ) {
            let encoded: Vec<GenRec> = batch
                .iter()
                .map(|&(pos, act, new, old, span)| {
                    let span = span.map(|(start, len)| (start, len.min(8 - start)));
                    (pos, act, new.to_le_bytes(), old.to_le_bytes(), span)
                })
                .collect();
            let recs: Vec<SyncRecEnc<'_>> = encoded
                .iter()
                .map(|(pos, act, new, _, span)| SyncRecEnc {
                    pos: *pos,
                    activate: *act,
                    value: new,
                    span: *span,
                })
                .collect();
            let mut buf = Vec::new();
            encode_sync_frame(&recs, &mut buf);

            // A record shipped as a delta decodes to its base with the span
            // of the new value patched in; any other to the new value. Decode
            // consults the bases in encode order, so replay that sequence.
            let is_delta = |span: &Option<(u16, u16)>| value_column_bytes(8, *span).1;
            let mut base_iter = encoded
                .iter()
                .filter(|(.., span)| is_delta(span))
                .map(|(_, _, _, old, _)| *old)
                .collect::<Vec<_>>()
                .into_iter();
            let out: Vec<SyncRecDec<u64>> =
                decode_sync_frame(&buf, |_| base_iter.next().expect("base per delta").to_vec())
                    .unwrap();
            let want: Vec<SyncRecDec<u64>> = encoded
                .iter()
                .map(|&(pos, act, new, old, span)| {
                    let mut value = new;
                    if let Some((start, len)) = span.filter(|_| is_delta(&span)) {
                        let at = start as usize..(start + len) as usize;
                        value = old;
                        value[at.clone()].copy_from_slice(&new[at]);
                    }
                    SyncRecDec {
                        pos,
                        activate: act,
                        value: u64::from_le_bytes(value),
                    }
                })
                .collect();
            prop_assert_eq!(out, want);

            // Gather frames: same vids, u64 accumulators.
            let grecs: Vec<(u32, u64)> =
                batch.iter().map(|&(pos, _, a, _, _)| (pos, a)).collect();
            prop_assert_eq!(decode_gather_frame::<u64>(&gather_frame(&grecs)).unwrap(), grecs);
        }

        /// Sync and gather frames off a socket are input like any other:
        /// truncated, bit-flipped, spliced and count-inflated frames — delta
        /// flags with no base behind them among them — decode to a
        /// `DecodeError` or to no more records than the input has bytes, never
        /// a panic.
        #[test]
        fn hostile_sync_and_gather_frames_never_panic(
            batch in proptest::collection::vec((0u32..200_000, any::<bool>(), any::<u64>()), 0..64),
            damage in proptest::collection::vec(arb_damage(), 1..4),
        ) {
            let values: Vec<[u8; 8]> = batch.iter().map(|&(.., v)| v.to_le_bytes()).collect();
            let recs: Vec<SyncRecEnc<'_>> = batch
                .iter()
                .zip(&values)
                .map(|(&(pos, activate, _), value)| SyncRecEnc {
                    pos,
                    activate,
                    value,
                    span: None,
                })
                .collect();
            let mut frame = Vec::new();
            encode_sync_frame(&recs, &mut frame);
            let bad = damaged(frame, &damage);
            // A frame off a socket has no base to patch a delta into.
            if let Ok(out) = decode_sync_frame::<u64>(&bad, |_| Vec::new()) {
                prop_assert!(out.capacity() <= bad.len(), "{} records, {} B", out.len(), bad.len());
            }
            let grecs: Vec<(u32, u64)> = batch.iter().map(|&(vid, _, a)| (vid, a)).collect();
            let bad = damaged(gather_frame(&grecs), &damage);
            if let Ok(out) = decode_gather_frame::<u64>(&bad) {
                prop_assert!(out.capacity() <= bad.len(), "{} records, {} B", out.len(), bad.len());
            }
        }
    }
}
