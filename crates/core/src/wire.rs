//! Columnar batch wire frames.
//!
//! The scalar codec charged every sync record a fixed `pos:u32 flags:u8`
//! header next to its value; at millions of records per superstep the
//! headers rival the payloads. This module frames the two per-superstep
//! protocol messages — vertex syncs and gather contributions — as
//! **columnar frames**: one header per frame, then each field packed
//! contiguously across all records, in the column primitives (the crate's
//! `columns` module) that every other message and file of the crate is
//! written in.
//!
//! ```text
//! sync frame   : tag:0xB1  count  activate:⌈n/8⌉B  pos:Δ-column  values
//! gather frame : tag:0xB2  count  vid:Δ-column  accumulators
//!   count    : uvarint, held to the input
//!   Δ-column : n × uvarint(zigzag(x_i − x_{i−1}))   (x_{−1} = 0)
//!   activate : one bit per record, LSB-first, padding bits zero
//!   values   : each value's (accumulator's) own self-delimiting encoding
//! ```
//!
//! Determinism: record order within a frame is the staging order (ascending
//! master position, fixed destination iteration), a pure function of the
//! committed graph state. The driver stages a phase's records once its
//! kernel has returned and ships one frame per destination per superstep,
//! charged what it encodes to
//! ([`imitator_storage::codec::Encode::encoded_len`]), so the bytes charged
//! are the bytes TCP writes.

use imitator_graph::Vid;
use imitator_storage::codec::{Decode, DecodeError, Encode, Reader, Sink};

use crate::columns::{dec_bits, dec_count, dec_deltas, enc_bits, enc_count, enc_deltas};
use crate::msg::VertexSync;

/// Frame tag of a columnar vertex-sync batch.
pub const SYNC_FRAME_TAG: u8 = 0xB1;
/// Frame tag of a columnar gather batch.
pub const GATHER_FRAME_TAG: u8 = 0xB2;

/// One sync record presented to [`encode_sync_frame`]. Outside this crate
/// only the frozen `benchmark/src/layers.rs` builds one: every other sync
/// frame is a `ProtoMsg::Sync`, which writes the same bytes.
pub struct SyncRecEnc<'a> {
    /// Master position on the destination node.
    pub pos: u32,
    /// Scatter/activate bit for the replica.
    pub activate: bool,
    /// Full codec encoding of the new value.
    pub value: &'a [u8],
    /// Always `None`: the frame has no delta layout. The field stays only
    /// because the frozen `benchmark/src/layers.rs` spells it; ROADMAP item
    /// 2's benchmark change deletes it.
    pub span: Option<(u16, u16)>,
}

/// Writes everything of a sync frame but its value column — tag, count,
/// activate column and position column — for `n` records, `rec(i)` giving
/// record `i`'s position and activate bit.
pub(crate) fn put_sync_head<S: Sink>(out: &mut S, n: usize, rec: impl Fn(usize) -> (u32, bool)) {
    out.put_byte(SYNC_FRAME_TAG);
    enc_count(n, out);
    enc_bits(1, (0..n).map(|i| u8::from(rec(i).1)), out);
    enc_deltas((0..n).map(|i| rec(i).0), out);
}

/// Encodes a columnar sync frame into `out` (appended; callers reuse the
/// buffer across frames to stay allocation-free in steady state). The frozen
/// `benchmark/src/layers.rs` calls it with this signature and is its only
/// caller outside this crate; `msg::tests::accounted_sizes_match_codec`
/// holds `ProtoMsg::Sync` to the bytes it writes.
///
/// # Panics
///
/// Panics if a record carries a span.
pub fn encode_sync_frame(recs: &[SyncRecEnc<'_>], out: &mut Vec<u8>) {
    assert!(
        recs.iter().all(|r| r.span.is_none()),
        "a sync frame has no delta layout"
    );
    put_sync_head(out, recs.len(), |i| (recs[i].pos, recs[i].activate));
    for r in recs {
        out.put(r.value);
    }
}

/// Decodes a columnar sync frame. `_base` is never called: it stays only
/// because the frozen `benchmark/src/layers.rs`, this function's only
/// caller outside this crate, passes it, and ROADMAP item 2's benchmark
/// change deletes it.
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncated or corrupt input; what it reserves
/// stays within a constant of the input's size.
pub fn decode_sync_frame<V: Decode>(
    bytes: &[u8],
    _base: impl FnMut(u32) -> Vec<u8>,
) -> Result<Vec<VertexSync<V>>, DecodeError> {
    whole_frame(bytes, SYNC_FRAME_TAG, dec_sync_body)
}

/// A sync frame after its tag.
pub(crate) fn dec_sync_body<V: Decode>(
    r: &mut Reader<'_>,
) -> Result<Vec<VertexSync<V>>, DecodeError> {
    let n = dec_count(r)?;
    let activate = dec_bits(r, 1, n)?;
    let positions = dec_deltas(r, n)?;
    let mut out = Vec::with_capacity(n);
    for (i, pos) in positions.into_iter().enumerate() {
        out.push(VertexSync {
            pos,
            activate: activate.get(i) != 0,
            value: V::decode(r)?,
        });
    }
    Ok(out)
}

/// Encodes a columnar gather frame of `(vid, accumulator)` records: vid
/// delta column, then the accumulator column.
pub fn encode_gather_frame<'a, A: Encode + 'a, S: Sink>(
    recs: impl ExactSizeIterator<Item = (Vid, &'a A)> + Clone,
    out: &mut S,
) {
    out.put_byte(GATHER_FRAME_TAG);
    enc_count(recs.len(), out);
    enc_deltas(recs.clone().map(|(vid, _)| vid.raw()), out);
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
pub fn decode_gather_frame<A: Decode>(bytes: &[u8]) -> Result<Vec<(Vid, A)>, DecodeError> {
    whole_frame(bytes, GATHER_FRAME_TAG, dec_gather_body)
}

/// A gather frame after its tag.
pub(crate) fn dec_gather_body<A: Decode>(r: &mut Reader<'_>) -> Result<Vec<(Vid, A)>, DecodeError> {
    let n = dec_count(r)?;
    let vids = dec_deltas(r, n)?;
    let mut out = Vec::with_capacity(n);
    for vid in vids {
        out.push((Vid::new(vid), A::decode(r)?));
    }
    Ok(out)
}

/// `tag`, then what `body` reads, then nothing.
fn whole_frame<T>(
    bytes: &[u8],
    tag: u8,
    body: impl FnOnce(&mut Reader<'_>) -> Result<T, DecodeError>,
) -> Result<T, DecodeError> {
    let mut r = Reader::new(bytes);
    if r.take(1)?[0] != tag {
        return Err(DecodeError::Corrupt("frame tag"));
    }
    let out = body(&mut r)?;
    if r.remaining() > 0 {
        return Err(DecodeError::TrailingBytes(r.remaining()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ckpt::tests::{arb_damage, damaged};
    use imitator_storage::codec::{uvarint_len, write_uvarint, zigzag64};
    use proptest::prelude::*;

    fn gather_frame<A: Encode>(recs: &[(Vid, A)]) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_gather_frame(recs.iter().map(|(vid, a)| (*vid, a)), &mut buf);
        buf
    }

    fn sync_frame(recs: &[(u32, bool, u64)]) -> Vec<u8> {
        let values: Vec<[u8; 8]> = recs.iter().map(|&(.., v)| v.to_le_bytes()).collect();
        let recs: Vec<SyncRecEnc<'_>> = recs
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
        frame
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        let no_base = |_| Vec::new();
        assert!(decode_sync_frame::<u32>(&[GATHER_FRAME_TAG], no_base).is_err());
        assert!(decode_gather_frame::<u32>(&[SYNC_FRAME_TAG]).is_err());
        let mut buf = gather_frame::<u32>(&[(Vid::new(1), 5)]);
        buf.push(0); // trailing byte
        assert!(matches!(
            decode_gather_frame::<u32>(&buf),
            Err(DecodeError::TrailingBytes(_))
        ));
        // The activate column's padding bits are zero: one record uses one
        // bit of its byte, and any of the other seven set is corruption.
        let frame = sync_frame(&[(3, true, 7)]);
        assert_eq!(frame[2], 1);
        for bit in 1..8 {
            let mut bad = frame.clone();
            bad[2] |= 1 << bit;
            let err = decode_sync_frame::<u64>(&bad, no_base).err();
            assert_eq!(err, Some(DecodeError::Corrupt("bit column padding")));
        }
        // A position step past every position, and one past `i64`.
        for step in [u64::from(u32::MAX) * 2, u64::MAX - 1] {
            let mut buf = vec![SYNC_FRAME_TAG, 2, 0];
            write_uvarint(&mut buf, zigzag64(5));
            write_uvarint(&mut buf, step);
            buf.extend([0u8; 16]);
            assert!(decode_sync_frame::<u64>(&buf, no_base).is_err());
            let mut buf = vec![GATHER_FRAME_TAG, 2];
            write_uvarint(&mut buf, zigzag64(5));
            write_uvarint(&mut buf, step);
            buf.extend([0u8; 16]);
            assert!(decode_gather_frame::<u64>(&buf).is_err());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary batches ⇄ bytes ⇄ batches; a sync frame is its count,
        /// one activate bit a record, the position column and the values.
        #[test]
        fn columnar_codec_roundtrip(
            batch in proptest::collection::vec((0u32..200_000, any::<bool>(), any::<u64>()), 0..64)
        ) {
            let frame = sync_frame(&batch);
            let out: Vec<VertexSync<u64>> = decode_sync_frame(&frame, |_| Vec::new()).unwrap();
            let want: Vec<VertexSync<u64>> = batch
                .iter()
                .map(|&(pos, activate, value)| VertexSync { pos, value, activate })
                .collect();
            prop_assert_eq!(out, want);
            let mut prev = 0i64;
            let positions: usize = batch
                .iter()
                .map(|&(pos, ..)| {
                    let step = i64::from(pos) - prev;
                    prev = i64::from(pos);
                    uvarint_len(zigzag64(step))
                })
                .sum();
            let n = batch.len();
            let want_len = 1 + uvarint_len(n as u64) + n.div_ceil(8) + positions + 8 * n;
            prop_assert_eq!(frame.len(), want_len);

            // Gather frames: same vids, u64 accumulators.
            let grecs: Vec<(Vid, u64)> =
                batch.iter().map(|&(pos, _, a)| (Vid::new(pos), a)).collect();
            prop_assert_eq!(decode_gather_frame::<u64>(&gather_frame(&grecs)).unwrap(), grecs);
        }

        /// Sync and gather frames off a socket are input like any other:
        /// truncated, bit-flipped, spliced and count-inflated frames decode to
        /// a `DecodeError` or to no more records than the input has bytes,
        /// never a panic.
        #[test]
        fn hostile_sync_and_gather_frames_never_panic(
            batch in proptest::collection::vec((0u32..200_000, any::<bool>(), any::<u64>()), 0..64),
            damage in proptest::collection::vec(arb_damage(), 1..4),
        ) {
            let bad = damaged(sync_frame(&batch), &damage);
            if let Ok(out) = decode_sync_frame::<u64>(&bad, |_| Vec::new()) {
                prop_assert!(out.capacity() <= bad.len(), "{} records, {} B", out.len(), bad.len());
            }
            let grecs: Vec<(Vid, u64)> =
                batch.iter().map(|&(vid, _, a)| (Vid::new(vid), a)).collect();
            let bad = damaged(gather_frame(&grecs), &damage);
            if let Ok(out) = decode_gather_frame::<u64>(&bad) {
                prop_assert!(out.capacity() <= bad.len(), "{} records, {} B", out.len(), bad.len());
            }
        }
    }
}
