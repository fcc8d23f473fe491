//! A small deterministic binary codec.
//!
//! Snapshot files, metadata snapshots, edge-ckpt files and every message a
//! socket carries need a stable byte encoding that round-trips exactly and
//! fails loudly on corruption. [`Encode`]/[`Decode`] implement
//! little-endian, length-prefixed encoding for the primitive and container
//! types the fault-tolerance layers store and ship.
//!
//! An encoder writes into a [`Sink`]: a `Vec<u8>` keeps the bytes, a
//! [`ByteCount`] keeps only their number. What something costs on the wire
//! is its own encoder run against the count ([`Encode::encoded_len`]), so a
//! size and the bytes it sizes cannot disagree.
//!
//! # Examples
//!
//! ```
//! use imitator_storage::codec::{decode, Decode, Encode, Reader};
//!
//! let mut buf = Vec::new();
//! vec![1u32, 2, 3].encode(&mut buf);
//! let back: Vec<u32> = decode(&buf)?;
//! assert_eq!(back, vec![1, 2, 3]);
//! # Ok::<(), imitator_storage::codec::DecodeError>(())
//! ```

use std::error::Error;
use std::fmt;

/// Error decoding a value from bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the value was complete.
    UnexpectedEof {
        /// Bytes requested past the end.
        needed: usize,
        /// Bytes remaining.
        remaining: usize,
    },
    /// A length or discriminant field held an invalid value.
    Corrupt(&'static str),
    /// Decoding finished but bytes were left over (top-level [`decode`] only).
    TrailingBytes(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof { needed, remaining } => write!(
                f,
                "unexpected end of buffer: needed {needed} bytes, {remaining} remaining"
            ),
            DecodeError::Corrupt(what) => write!(f, "corrupt field: {what}"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
        }
    }
}

impl Error for DecodeError {}

/// A cursor over an immutable byte buffer.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes exactly `n` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEof`] if fewer than `n` remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
}

/// Where an encoder writes.
pub trait Sink {
    /// Appends `bytes`.
    fn put(&mut self, bytes: &[u8]);

    /// Appends one byte.
    fn put_byte(&mut self, b: u8) {
        self.put(&[b]);
    }

    /// Appends `v` as an LEB128 varint (7 bits per byte, MSB =
    /// continuation); [`write_uvarint`] writes every varint through here.
    fn put_uvarint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.put_byte((v as u8) | 0x80);
            v >>= 7;
        }
        self.put_byte(v as u8);
    }
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    fn put_byte(&mut self, b: u8) {
        self.push(b);
    }
}

/// A slice written in place from its front, which moves past what was
/// written — the buffer of a sized encoding.
///
/// # Panics
///
/// Panics on a write past the slice's end: the sizing was wrong.
impl Sink for &mut [u8] {
    fn put(&mut self, bytes: &[u8]) {
        let (head, tail) = std::mem::take(self).split_at_mut(bytes.len());
        head.copy_from_slice(bytes);
        *self = tail;
    }
}

/// A sink that keeps no bytes, only how many were written.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ByteCount(pub usize);

impl Sink for ByteCount {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }

    fn put_byte(&mut self, _b: u8) {
        self.0 += 1;
    }

    fn put_uvarint(&mut self, v: u64) {
        self.0 += uvarint_len(v);
    }
}

/// Types that can append their encoding to a [`Sink`].
pub trait Encode {
    /// Appends the encoding of `self` to `out`.
    fn encode<S: Sink>(&self, out: &mut S);

    /// Convenience: encodes into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }

    /// The length of the encoding: the encoder run against a [`ByteCount`],
    /// which writes nothing.
    fn encoded_len(&self) -> usize {
        let mut n = ByteCount::default();
        self.encode(&mut n);
        n.0
    }
}

/// Types that can be decoded from a [`Reader`].
pub trait Decode: Sized {
    /// Reads one value.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated or corrupt input.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
}

/// Decodes a complete buffer into one value, rejecting trailing bytes.
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncated, corrupt, or over-long input.
pub fn decode<T: Decode>(buf: &[u8]) -> Result<T, DecodeError> {
    let mut r = Reader::new(buf);
    let v = T::decode(&mut r)?;
    if r.remaining() > 0 {
        return Err(DecodeError::TrailingBytes(r.remaining()));
    }
    Ok(v)
}

macro_rules! impl_codec_int {
    ($($t:ty),* $(,)?) => {
        $(
            impl Encode for $t {
                fn encode<S: Sink>(&self, out: &mut S) {
                    out.put(&self.to_le_bytes());
                }
            }
            impl Decode for $t {
                fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                    let bytes = r.take(std::mem::size_of::<$t>())?;
                    Ok(<$t>::from_le_bytes(bytes.try_into().expect("sized take")))
                }
            }
        )*
    };
}

impl_codec_int!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

impl Encode for usize {
    fn encode<S: Sink>(&self, out: &mut S) {
        (*self as u64).encode(out);
    }
}

impl Decode for usize {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let v = u64::decode(r)?;
        usize::try_from(v).map_err(|_| DecodeError::Corrupt("usize overflow"))
    }
}

impl Encode for bool {
    fn encode<S: Sink>(&self, out: &mut S) {
        out.put_byte(u8::from(*self));
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::Corrupt("bool discriminant")),
        }
    }
}

impl Encode for () {
    fn encode<S: Sink>(&self, _out: &mut S) {}
}

impl Decode for () {
    fn decode(_r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(())
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode<S: Sink>(&self, out: &mut S) {
        (self.len() as u64).encode(out);
        for item in self {
            item.encode(out);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = u64::decode(r)? as usize;
        // Sanity bound: an element takes at least one byte, so a length
        // larger than the remaining buffer is corruption, not allocation fuel.
        if len > r.remaining().saturating_mul(8).max(1024) {
            return Err(DecodeError::Corrupt("vec length"));
        }
        let mut out = Vec::with_capacity(len.min(1 << 20));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode<S: Sink>(&self, out: &mut S) {
        match self {
            None => out.put_byte(0),
            Some(v) => {
                out.put_byte(1);
                v.encode(out);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(DecodeError::Corrupt("option discriminant")),
        }
    }
}

impl Encode for String {
    fn encode<S: Sink>(&self, out: &mut S) {
        (self.len() as u64).encode(out);
        out.put(self.as_bytes());
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = u64::decode(r)? as usize;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::Corrupt("utf-8 string"))
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode<S: Sink>(&self, out: &mut S) {
        self.0.encode(out);
        self.1.encode(out);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

// ---------------------------------------------------------------------------
// Varint layer: LEB128 unsigned varints and zigzag signed mapping. Columnar
// wire frames and checkpoint part payloads use these for counts, deltas and
// positions, where small magnitudes dominate.
// ---------------------------------------------------------------------------

/// Appends `v` as an LEB128 varint ([`Sink::put_uvarint`]).
pub fn write_uvarint<S: Sink>(out: &mut S, v: u64) {
    out.put_uvarint(v);
}

/// Reads one LEB128 varint.
///
/// # Errors
///
/// Returns [`DecodeError`] on truncation, on more than 10 bytes, or on a
/// non-canonical terminal byte that overflows 64 bits.
pub fn read_uvarint(r: &mut Reader<'_>) -> Result<u64, DecodeError> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let b = r.take(1)?[0];
        let low = u64::from(b & 0x7F);
        if shift == 63 && low > 1 {
            return Err(DecodeError::Corrupt("varint overflow"));
        }
        v |= low << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(DecodeError::Corrupt("varint too long"))
}

/// Encoded length of `v` as a varint, in bytes (1..=10).
pub fn uvarint_len(v: u64) -> usize {
    (1 + (63 ^ (v | 1).leading_zeros()) / 7) as usize
}

/// Maps a signed value onto unsigned so small magnitudes stay small:
/// 0, -1, 1, -2, ... → 0, 1, 2, 3, ...
pub fn zigzag64(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag64`].
pub fn unzigzag64(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// ---------------------------------------------------------------------------
// Sectioned files: one file a reader takes whole or one section of. A uvarint
// section count, a uvarint byte length per section, then the sections back
// to back.
// ---------------------------------------------------------------------------

/// Joins sections into one sectioned file: `body` holds them back to back,
/// section `i` of `lens[i]` bytes, and gets their table in front of it —
/// moved within its own buffer when that has [`SECTION_TABLE_ROOM`] bytes a
/// section to spare, so a file is never built twice.
pub fn join_sections(mut body: Vec<u8>, lens: &[usize]) -> Vec<u8> {
    debug_assert_eq!(lens.iter().sum::<usize>(), body.len());
    let mut table = Vec::with_capacity(SECTION_TABLE_ROOM * (lens.len() + 1));
    write_uvarint(&mut table, lens.len() as u64);
    for &len in lens {
        write_uvarint(&mut table, len as u64);
    }
    body.splice(0..0, table);
    body
}

/// The most a sectioned file's table takes per section (and once more for
/// the count): a uvarint of up to 64 bits.
pub const SECTION_TABLE_ROOM: usize = 10;

/// Where the sections of a sectioned file lie: their byte ranges in `file`,
/// in section order, each in bounds.
///
/// # Errors
///
/// Returns a [`DecodeError`] when the table is cut short, claims more
/// sections than the file has bytes, or its lengths do not add up to the
/// bytes after it.
pub fn locate_sections(file: &[u8]) -> Result<Vec<std::ops::Range<usize>>, DecodeError> {
    let mut r = Reader::new(file);
    let n = read_uvarint(&mut r)?;
    // Every length takes a byte at least: a larger count is not sized for.
    if n > r.remaining() as u64 {
        return Err(DecodeError::Corrupt("section count exceeds input"));
    }
    let mut sections = Vec::with_capacity(n as usize);
    let mut end = 0usize;
    for _ in 0..n {
        let len = read_uvarint(&mut r)?;
        let start = end;
        end = usize::try_from(len)
            .ok()
            .and_then(|len| start.checked_add(len))
            .filter(|&end| end <= file.len())
            .ok_or(DecodeError::Corrupt("section overruns the file"))?;
        sections.push(start..end);
    }
    if end != r.remaining() {
        return Err(DecodeError::Corrupt("sections do not add up to the file"));
    }
    let table = file.len() - end;
    for section in &mut sections {
        *section = section.start + table..section.end + table;
    }
    Ok(sections)
}

impl<A: Encode, B: Encode, C: Encode> Encode for (A, B, C) {
    fn encode<S: Sink>(&self, out: &mut S) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
}

impl<A: Decode, B: Decode, C: Decode> Decode for (A, B, C) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        let back: T = decode(&bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(u16::MAX);
        roundtrip(123_456_789u32);
        roundtrip(u64::MAX);
        roundtrip(-42i32);
        roundtrip(i64::MIN);
        roundtrip(3.25f32);
        roundtrip(-1e300f64);
        roundtrip(true);
        roundtrip(false);
        roundtrip(usize::MAX);
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(Some(7u8));
        roundtrip(Option::<u8>::None);
        roundtrip("héllo".to_owned());
        roundtrip((1u32, 2.5f64));
        roundtrip((1u8, vec![2u16], "x".to_owned()));
        roundtrip(vec![Some((1u32, false)), None]);
    }

    #[test]
    fn truncated_input_is_eof() {
        let bytes = 12345u64.to_bytes();
        let err = decode::<u64>(&bytes[..4]).unwrap_err();
        assert!(matches!(err, DecodeError::UnexpectedEof { .. }));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = 7u32.to_bytes();
        bytes.push(0);
        assert_eq!(decode::<u32>(&bytes), Err(DecodeError::TrailingBytes(1)));
    }

    #[test]
    fn bad_bool_rejected() {
        assert_eq!(
            decode::<bool>(&[2]),
            Err(DecodeError::Corrupt("bool discriminant"))
        );
    }

    #[test]
    fn bad_option_rejected() {
        assert!(matches!(
            decode::<Option<u8>>(&[9, 0]),
            Err(DecodeError::Corrupt(_))
        ));
    }

    #[test]
    fn absurd_vec_length_rejected() {
        let mut bytes = Vec::new();
        (u64::MAX).encode(&mut bytes);
        assert!(matches!(
            decode::<Vec<u8>>(&bytes),
            Err(DecodeError::Corrupt(_))
        ));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut bytes = Vec::new();
        2u64.encode(&mut bytes);
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(
            decode::<String>(&bytes),
            Err(DecodeError::Corrupt("utf-8 string"))
        );
    }

    #[test]
    fn uvarint_roundtrips_and_lengths_match() {
        let samples = [
            0u64,
            1,
            0x7F,
            0x80,
            0x3FFF,
            0x4000,
            123_456_789,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ];
        for v in samples {
            let mut buf = Vec::new();
            write_uvarint(&mut buf, v);
            assert_eq!(buf.len(), uvarint_len(v), "len mismatch for {v}");
            let mut r = Reader::new(&buf);
            assert_eq!(read_uvarint(&mut r).unwrap(), v);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn uvarint_length_boundaries() {
        for k in 0..9 {
            let boundary = 1u64 << (7 * (k + 1));
            assert_eq!(uvarint_len(boundary - 1), k + 1);
            assert_eq!(uvarint_len(boundary), k + 2);
        }
    }

    #[test]
    fn uvarint_rejects_truncation_and_overflow() {
        let mut r = Reader::new(&[0x80]);
        assert!(matches!(
            read_uvarint(&mut r),
            Err(DecodeError::UnexpectedEof { .. })
        ));
        // 11 continuation bytes: too long for 64 bits.
        let long = [0xFFu8; 10];
        let mut r = Reader::new(&long);
        assert!(matches!(read_uvarint(&mut r), Err(DecodeError::Corrupt(_))));
    }

    #[test]
    fn zigzag_roundtrips_and_keeps_small_magnitudes_small() {
        for v in [0i64, -1, 1, -2, 2, i64::MIN, i64::MAX, -123_456, 123_456] {
            assert_eq!(unzigzag64(zigzag64(v)), v);
        }
        assert_eq!(zigzag64(0), 0);
        assert_eq!(zigzag64(-1), 1);
        assert_eq!(zigzag64(1), 2);
        assert!(uvarint_len(zigzag64(-64)) == 1);
    }

    /// A file joined from `sections`, each given whole.
    pub(crate) fn joined(sections: &[&[u8]]) -> Vec<u8> {
        let lens: Vec<usize> = sections.iter().map(|s| s.len()).collect();
        join_sections(sections.concat(), &lens)
    }

    #[test]
    fn a_slice_sink_writes_in_place_and_moves_past() {
        let mut buf = [0u8; 6];
        let mut out = &mut buf[..];
        write_uvarint(&mut out, 300);
        7u16.encode(&mut out);
        assert_eq!(out.len(), 2, "past what was written");
        assert_eq!(buf, [0xAC, 0x02, 7, 0, 0, 0]);
    }

    #[test]
    fn sections_join_and_locate() {
        let sections: [&[u8]; 4] = [b"ab", b"", &[7; 200], b"c"];
        let file = joined(&sections);
        // Count, then lengths: 200 takes two bytes.
        assert_eq!(&file[..6], &[4, 2, 0, 200, 1, 1]);
        let located = locate_sections(&file).unwrap();
        let back: Vec<&[u8]> = located.iter().map(|s| &file[s.clone()]).collect();
        assert_eq!(back, sections);
        assert_eq!(locate_sections(&joined(&[])), Ok(vec![]));
        // Room for the table: it moves in, the body does not move out.
        let mut body = Vec::with_capacity(3 + 2 * SECTION_TABLE_ROOM);
        body.extend_from_slice(b"xyz");
        let at = body.as_ptr();
        let file = join_sections(body, &[3]);
        assert_eq!(
            (file.as_ptr(), &file[..]),
            (at, &[1, 3, b'x', b'y', b'z'][..])
        );
    }

    /// A table is input from outside: one cut short, one whose lengths
    /// overrun or undershoot the file, or one claiming more sections than
    /// there are bytes is an error, never a panic or an allocation sized by
    /// the claim.
    #[test]
    fn a_table_that_does_not_add_up_is_an_error() {
        let file = joined(&[b"abc", b"de"]);
        let corrupt = |bytes: &[u8]| locate_sections(bytes).is_err();
        assert!(corrupt(&[]));
        assert!(corrupt(&file[..2]), "cut inside the table");
        assert!(corrupt(&file[..file.len() - 1]), "a section cut short");
        let mut long = file.clone();
        long.push(0);
        assert!(corrupt(&long), "bytes past the last section");
        let mut over = file.clone();
        over[1] = 0x7F;
        assert!(corrupt(&over), "a length past the file");
        let mut wide = vec![1];
        wide.extend([0xFF; 9]);
        wide.push(0x01);
        assert!(corrupt(&wide), "a length past usize or the file");
        assert!(
            corrupt(&[0xFF, 0xFF, 0xFF, 0x7F, 0]),
            "a count past the input"
        );
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            DecodeError::UnexpectedEof {
                needed: 4,
                remaining: 1,
            },
            DecodeError::Corrupt("x"),
            DecodeError::TrailingBytes(3),
        ] {
            assert!(!format!("{e}").is_empty());
        }
    }
}
