//! The byte form of a full state's three edge lists, defined once: the form
//! a mirror keeps them in (DESIGN §4.2) and the form every message and
//! snapshot carries them in (DESIGN §4.6). A message writes a list's run
//! verbatim wherever it holds one, so a mirror's lists cross the wire
//! without being decoded or encoded again.
//!
//! A *run* is a list's count, then its entries, every integer an LEB128
//! varint:
//!
//! * an in-edge: its weight (an `f32`, little-endian) unless the run's
//!   [`Weights`] write none, then its source's vertex ID — the source named
//!   once, by vertex: a node that rebuilds the master from the run finds
//!   where the source sits through its own index, once every copy is placed;
//! * a consumer (`out_local_owner`): its owner-local position;
//! * a remote out-edge: its consumer's vertex ID — the consumer named
//!   once, by vertex: whichever node masters it now finds where it sits
//!   through its own index, so a crash that moves it rewrites no entry.
//!
//! An empty list is its count, 0. A mirror's three runs are one *block*:
//! in-edges, consumers, remote out-edges, back to back — the bytes a message
//! writes for a record that carries all three ([`split_block`] finds the
//! second and third by the counts). Runs reach a node in messages and
//! snapshots, so they are checked where they enter ([`take_run`]): every
//! count against the input, every integer against `u32`. What passes is
//! stored and later read without a second check.

use imitator_graph::Vid;
use imitator_storage::codec::{DecodeError, Reader, Sink};

use crate::full_state::RemoteEdge;

/// What reading a stored run may assume.
const CHECKED: &str = "a stored run was checked where it entered the node";

/// How a store or a message writes the weights of its in-edges.
#[derive(Debug, Clone, Copy, Default)]
pub enum Weights {
    /// No in-edge written yet: the first list written decides.
    #[default]
    Unset,
    /// Every in-edge weighs this, to the bit, and a run writes no weight.
    Uniform(f32),
    /// Each in-edge carries its own weight.
    PerEdge,
}

/// Layouts are equal to the bit of their weight.
impl PartialEq for Weights {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Weights::Uniform(a), Weights::Uniform(b)) => a.to_bits() == b.to_bits(),
            (Weights::Unset, Weights::Unset) | (Weights::PerEdge, Weights::PerEdge) => true,
            _ => false,
        }
    }
}

impl Weights {
    /// The layout that writes `weights`: uniform when all of them have one
    /// weight's bits, per edge when two differ, unset when there are none.
    pub fn of(weights: impl IntoIterator<Item = f32>) -> Weights {
        let mut weights = weights.into_iter();
        let Some(first) = weights.next() else {
            return Weights::Unset;
        };
        match weights.all(|w| w.to_bits() == first.to_bits()) {
            true => Weights::Uniform(first),
            false => Weights::PerEdge,
        }
    }

    /// The layout that writes what both `self` and `more` write.
    pub fn and(self, more: Weights) -> Weights {
        match (self, more) {
            (Weights::Unset, any) | (any, Weights::Unset) => any,
            (a, b) if a == b => a,
            _ => Weights::PerEdge,
        }
    }

    /// The weight a uniform layout leaves out of its runs.
    pub fn uniform(self) -> Option<f32> {
        match self {
            Weights::Uniform(w) => Some(w),
            _ => None,
        }
    }
}

/// One in-edge of a full state: its weight and its source's vertex ID.
#[derive(Debug, Clone, Copy)]
pub struct InEdge {
    /// The edge's weight.
    pub weight: f32,
    /// The source vertex.
    pub src: Vid,
}

/// In-edges are equal to the bit of their weight.
impl PartialEq for InEdge {
    fn eq(&self, other: &Self) -> bool {
        (self.weight.to_bits(), self.src) == (other.weight.to_bits(), other.src)
    }
}

/// Room an entry is written into: an in-edge's weight and varint take at
/// most 9 bytes, any other entry's varint 5, and a varint is stored as
/// eight bytes of which its length count ([`write_u32`]), so the last may
/// reach 12 bytes in.
const ENTRY_ROOM: usize = 16;

/// An entry of a run: written and checked against the weight a uniform
/// layout leaves out (`uniform`), which only an in-edge reads.
pub trait Entry: Copy {
    /// Writes the entry at the front of `buf`, which has room for 16
    /// bytes, and returns how many of them count.
    fn write(self, uniform: Option<f32>, buf: &mut [u8]) -> usize;

    /// How many bytes [`Entry::write`] counts for the entry, without
    /// writing one.
    fn size(self, uniform: Option<f32>) -> usize;

    /// Reads one entry off the front of `bytes`, checking it.
    ///
    /// # Errors
    ///
    /// Refuses input cut short, an integer past `u32` and a node past the
    /// 2^16 a cluster may have.
    fn take(bytes: &mut &[u8], uniform: Option<f32>) -> Result<Self, DecodeError>;

    /// Reads one entry off the front of a stored run, which was checked
    /// where it entered the node ([`take_run`]).
    fn read(bytes: &mut &[u8], uniform: Option<f32>) -> Self;
}

impl Entry for u32 {
    fn write(self, _: Option<f32>, buf: &mut [u8]) -> usize {
        write_u32(buf, self)
    }

    fn size(self, _: Option<f32>) -> usize {
        varint_len(self)
    }

    fn take(bytes: &mut &[u8], _: Option<f32>) -> Result<u32, DecodeError> {
        take_u32(bytes)
    }

    fn read(bytes: &mut &[u8], _: Option<f32>) -> u32 {
        read_u32(bytes)
    }
}

impl Entry for RemoteEdge {
    fn write(self, _: Option<f32>, buf: &mut [u8]) -> usize {
        write_u32(buf, self.consumer.raw())
    }

    fn size(self, _: Option<f32>) -> usize {
        varint_len(self.consumer.raw())
    }

    fn take(bytes: &mut &[u8], _: Option<f32>) -> Result<RemoteEdge, DecodeError> {
        let consumer = Vid::new(take_u32(bytes)?);
        Ok(RemoteEdge { consumer })
    }

    fn read(bytes: &mut &[u8], _: Option<f32>) -> RemoteEdge {
        let consumer = Vid::new(read_u32(bytes));
        RemoteEdge { consumer }
    }
}

impl Entry for InEdge {
    fn write(self, uniform: Option<f32>, buf: &mut [u8]) -> usize {
        let mut len = 0;
        if uniform.is_none() {
            buf[..4].copy_from_slice(&self.weight.to_le_bytes());
            len = 4;
        }
        len + write_u32(&mut buf[len..], self.src.raw())
    }

    fn size(self, uniform: Option<f32>) -> usize {
        let weight = if uniform.is_none() { 4 } else { 0 };
        weight + varint_len(self.src.raw())
    }

    fn take(bytes: &mut &[u8], uniform: Option<f32>) -> Result<InEdge, DecodeError> {
        let weight = match uniform {
            Some(w) => w,
            None => {
                let chunk = bytes.split_first_chunk::<4>();
                let (weight, rest) = chunk.ok_or_else(|| cut_short(bytes))?;
                *bytes = rest;
                f32::from_le_bytes(*weight)
            }
        };
        let src = Vid::new(take_u32(bytes)?);
        Ok(InEdge { weight, src })
    }

    fn read(bytes: &mut &[u8], uniform: Option<f32>) -> InEdge {
        let weight = uniform.unwrap_or_else(|| {
            let (weight, rest) = bytes.split_first_chunk::<4>().expect(CHECKED);
            *bytes = rest;
            f32::from_le_bytes(*weight)
        });
        let src = Vid::new(read_u32(bytes));
        InEdge { weight, src }
    }
}

fn cut_short(bytes: &[u8]) -> DecodeError {
    DecodeError::UnexpectedEof {
        needed: bytes.len() + 1,
        remaining: bytes.len(),
    }
}

/// Writes `v` as an LEB128 varint at the front of `buf` and returns its
/// length. Each group of seven bits is shifted into a byte of one `u64` and
/// every byte but the last gets its continuation bit, all with shifts and
/// masks, and the eight bytes are stored at once, of which the length says
/// how many count: no branch and no loop on the value, whose length varies
/// from one entry to the next. `buf` needs room for eight.
fn write_u32(buf: &mut [u8], v: u32) -> usize {
    let len = varint_len(v);
    let x = u64::from(v);
    let groups = (x & 0x7F)
        | (x << 1 & 0x7F00)
        | (x << 2 & 0x7F_0000)
        | (x << 3 & 0x7F00_0000)
        | (x << 4 & 0x7F_0000_0000);
    let more = 0x80_8080_8080 & ((1u64 << (8 * (len - 1))) - 1);
    buf[..8].copy_from_slice(&(groups | more).to_le_bytes());
    len
}

/// Bytes the LEB128 varint of `v` takes: one per started group of seven
/// significant bits, and one for 0.
fn varint_len(v: u32) -> usize {
    (1 + (31 - (v | 1).leading_zeros()) / 7) as usize
}

/// A varint of at most five bytes holding a `u32`.
fn take_u32(bytes: &mut &[u8]) -> Result<u32, DecodeError> {
    let mut value = 0u64;
    for shift in (0..35).step_by(7) {
        let (&byte, rest) = bytes.split_first().ok_or_else(|| cut_short(bytes))?;
        *bytes = rest;
        value |= u64::from(byte & 0x7F) << shift;
        if byte < 0x80 {
            return u32::try_from(value).map_err(|_| DecodeError::Corrupt("varint exceeds u32"));
        }
    }
    Err(DecodeError::Corrupt("varint exceeds u32"))
}

/// A varint of a stored run, which was checked where it entered the node.
fn read_u32(bytes: &mut &[u8]) -> u32 {
    let (mut value, mut at) = (0, 0);
    loop {
        let byte = bytes[at];
        value |= u32::from(byte & 0x7F) << (7 * at);
        at += 1;
        if byte < 0x80 {
            *bytes = &bytes[at..];
            return value;
        }
    }
}

/// Writes the `len` `entries` as a message writes a list — the count, then
/// each entry; a store keeps the same bytes —: they are written into a
/// buffer on the stack and `out` given a buffer at a time, one copy for a
/// few dozen entries instead of one per entry; a growing column grows as a
/// `Vec` does, never past what it needs.
pub(crate) fn append_list<T: Entry, S: Sink>(
    len: usize,
    entries: impl Iterator<Item = T>,
    uniform: Option<f32>,
    out: &mut S,
) {
    let mut buf = [0; 128];
    let mut at = write_u32(&mut buf, len as u32);
    for entry in entries {
        if at > buf.len() - ENTRY_ROOM {
            out.put(&buf[..at]);
            at = 0;
        }
        at += entry.write(uniform, &mut buf[at..]);
    }
    out.put(&buf[..at]);
}

/// Where the `n` varints that start at `at` end in `bytes`: a byte below
/// 0x80 ends one.
fn varints_end(bytes: &[u8], at: usize, n: usize) -> usize {
    let mut ends = (at..bytes.len()).filter(|&i| bytes[i] < 0x80);
    n.checked_sub(1)
        .map_or(at, |last| ends.nth(last).expect(CHECKED) + 1)
}

/// How many bytes the run at the front of `bytes` takes: its count, then
/// that many entries of `varints` varints each — and, if `weighed`, a
/// 4-byte weight ahead of each entry's varint —, skipped without decoding
/// one.
fn run_len(bytes: &[u8], varints: usize, weighed: bool) -> usize {
    let mut rest = bytes;
    let n = read_u32(&mut rest) as usize;
    let at = bytes.len() - rest.len();
    if weighed {
        (0..n).fold(at, |at, _| varints_end(bytes, at + 4, varints))
    } else {
        varints_end(bytes, at, n * varints)
    }
}

/// The three runs of a block — the in-edges, the consumers, the remote
/// out-edges —, the second and third found by skipping the entries before
/// them. A slot without a block (no bytes) holds three empty lists.
pub(crate) fn split_block(block: &[u8], uniform: Option<f32>) -> [Run<'_>; 3] {
    if block.is_empty() {
        return [Run::new(block, uniform); 3];
    }
    let ins = run_len(block, 1, uniform.is_none());
    let fed = ins + run_len(&block[ins..], 1, false);
    let run = |bytes| Run::new(bytes, uniform);
    [
        run(&block[..ins]),
        run(&block[ins..fed]),
        run(&block[fed..]),
    ]
}

/// A run as stored: a list's bytes — its count, then its entries; an empty
/// list is its count, 0, or no bytes at all in a slot without a block — and
/// the weight its in-edges have when it writes none.
#[derive(Clone, Copy)]
pub struct Run<'a> {
    bytes: &'a [u8],
    uniform: Option<f32>,
}

impl<'a> Run<'a> {
    pub(crate) fn new(bytes: &'a [u8], uniform: Option<f32>) -> Run<'a> {
        Run { bytes, uniform }
    }

    /// The bytes a store keeps.
    pub fn bytes(self) -> &'a [u8] {
        self.bytes
    }

    /// The weight every in-edge of the run has, if it writes none.
    pub fn uniform(self) -> Option<f32> {
        self.uniform
    }

    /// Entries in the run.
    pub fn len(self) -> usize {
        match self.bytes {
            [] => 0,
            mut bytes => read_u32(&mut bytes) as usize,
        }
    }

    /// Whether the run has no entry.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// The entries, in order.
    pub fn entries<T: Entry>(self) -> impl ExactSizeIterator<Item = T> + Clone + 'a {
        let (uniform, mut bytes) = (self.uniform, self.bytes);
        let n = if bytes.is_empty() {
            0
        } else {
            read_u32(&mut bytes) as usize
        };
        (0..n).map(move |_| T::read(&mut bytes, uniform))
    }

    /// Whether the run's bytes are what a list writes under `uniform`: it
    /// writes weights the same way, or has no in-edge to weigh.
    pub fn writes(self, uniform: Option<f32>) -> bool {
        self.is_empty() || self.uniform.map(f32::to_bits) == uniform.map(f32::to_bits)
    }

    /// Writes the run as a message writes its list, under `uniform`: the
    /// stored bytes verbatim where they are what the message writes
    /// ([`Run::writes`]), re-encoded otherwise.
    pub fn put<T: Entry, S: Sink>(self, uniform: Option<f32>, out: &mut S) {
        match self.bytes {
            [] => out.put_byte(0),
            bytes if self.writes(uniform) => out.put(bytes),
            _ => append_list(self.len(), self.entries::<T>(), uniform, out),
        }
    }
}

/// Reads one run of `T` off `r` — a message's or a snapshot's list — and
/// checks all of it: the count against the input, every entry as
/// [`Entry::take`] does. Returns the run as a store keeps it, the input's
/// own bytes, and its count.
///
/// # Errors
///
/// Returns the first [`DecodeError`] a count or an entry gives.
pub fn take_run<'a, T: Entry>(
    r: &mut Reader<'a>,
    uniform: Option<f32>,
) -> Result<(Run<'a>, usize), DecodeError> {
    let input = r.clone().take(r.remaining())?;
    let mut rest = input;
    let n = take_u32(&mut rest)? as usize;
    if n > rest.len() {
        return Err(DecodeError::Corrupt("count exceeds input"));
    }
    for _ in 0..n {
        T::take(&mut rest, uniform)?;
    }
    let bytes = r.take(input.len() - rest.len())?;
    Ok((Run::new(bytes, uniform), n))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// How many bytes [`append_list`] writes for `entries`,
    /// counted without writing one.
    fn list_size<T: Entry>(
        entries: impl ExactSizeIterator<Item = T>,
        uniform: Option<f32>,
    ) -> usize {
        let count = varint_len(u32::try_from(entries.len()).expect("a list holds < 2^32 entries"));
        count + entries.map(|entry| entry.size(uniform)).sum::<usize>()
    }

    fn run_of<T: Entry>(entries: &[T], uniform: Option<f32>) -> Vec<u8> {
        let mut bytes = Vec::new();
        append_list(entries.len(), entries.iter().copied(), uniform, &mut bytes);
        bytes
    }

    #[test]
    fn a_run_reads_back_what_was_written_in_either_layout() {
        let edges = [
            InEdge {
                weight: 0.5,
                src: Vid::new(70_000),
            },
            InEdge {
                weight: 0.5,
                src: Vid::new(u32::MAX),
            },
        ];
        for uniform in [None, Some(0.5)] {
            let bytes = run_of(&edges, uniform);
            assert_eq!(list_size(edges.iter().copied(), uniform), bytes.len());
            let (run, n) = take_run::<InEdge>(&mut Reader::new(&bytes), uniform).unwrap();
            assert_eq!((n, run.len(), run.bytes()), (2, 2, &bytes[..]));
            assert!(run.entries::<InEdge>().eq(edges));
        }
        let bytes = run_of::<u32>(&[], None);
        let (run, n) = take_run::<u32>(&mut Reader::new(&bytes), None).unwrap();
        assert_eq!((&bytes[..], n, run.bytes()), (&[0][..], 0, &[0][..]));
        assert!(run.is_empty() && run.writes(Some(2.0)));
    }

    /// The varint writer's bytes are the codec's, at every length's edges.
    #[test]
    fn write_u32_writes_what_put_uvarint_writes() {
        let edges = [0, 127, 128, (1 << 14) - 1, 1 << 14, (1 << 21) - 1, 1 << 21];
        let more = [(1 << 28) - 1, 1 << 28, u32::MAX];
        for v in edges.into_iter().chain(more) {
            let mut buf = [0xAA; 8];
            let len = write_u32(&mut buf, v);
            let mut wanted = Vec::new();
            wanted.put_uvarint(u64::from(v));
            assert_eq!(&buf[..len], &wanted[..], "{v}");
        }
    }

    /// A block splits into the runs written back to back, empty ones
    /// included, in either layout, and no bytes split into three empty runs:
    /// a weight whose bytes look like a varint's continuation is skipped.
    #[test]
    fn a_block_splits_by_its_counts() {
        let edge = |i: u32| InEdge {
            weight: -1.5,
            src: Vid::new(i * 300_000),
        };
        let ins: Vec<InEdge> = (0..40).map(edge).collect();
        let fed: Vec<u32> = (0..19).map(|i| i << (i % 29)).collect();
        let remote = [RemoteEdge {
            consumer: Vid::new(1 << 30),
        }];
        for uniform in [None, Some(-1.5)] {
            for cut in [0, 1, 40] {
                let mut block = run_of(&ins[..cut], uniform);
                let at = [block.len()];
                block.extend(run_of(&fed[..cut.min(19)], uniform));
                let at = [at[0], block.len()];
                block.extend(run_of(&remote[..cut.min(1)], uniform));
                let [a, b, c] = split_block(&block, uniform);
                assert_eq!(a.bytes(), &block[..at[0]]);
                assert_eq!(b.bytes(), &block[at[0]..at[1]]);
                assert_eq!(c.bytes(), &block[at[1]..]);
                assert!(a.entries::<InEdge>().eq(ins[..cut].iter().copied()));
            }
        }
        assert!(split_block(&[], None).iter().all(|run| run.is_empty()));
    }

    /// A remote out-edge is its consumer's varint: one past `u32`, a count
    /// past the input and a run cut short are refused.
    #[test]
    fn take_run_refuses_what_no_writer_writes() {
        let refused = |bytes: &[u8]| {
            let taken = take_run::<RemoteEdge>(&mut Reader::new(bytes), None);
            taken.map(|(_, n)| n)
        };
        let widest = RemoteEdge {
            consumer: Vid::new(u32::MAX),
        };
        assert_eq!(refused(&run_of(&[widest], None)), Ok(1));
        let past_u32 = [1, 0xFF, 0xFF, 0xFF, 0xFF, 0x10];
        let err = Some(DecodeError::Corrupt("varint exceeds u32"));
        assert_eq!(refused(&past_u32).err(), err);
        assert_eq!(
            refused(&[9, 1, 1]).err(),
            Some(DecodeError::Corrupt("count exceeds input"))
        );
        assert!(refused(&[2, 1]).is_err(), "cut short");
    }

    /// An in-edge is its weight, unless the layout writes none, then its
    /// source's varint: a weight cut short, a source missing or past `u32`
    /// are refused in either layout, and nothing else is read.
    #[test]
    fn take_run_refuses_an_in_edge_no_writer_writes() {
        let taken = |bytes: &[u8], uniform| {
            let taken = take_run::<InEdge>(&mut Reader::new(bytes), uniform);
            taken.map(|(run, n)| (run.bytes().len(), n))
        };
        let past_u32 = Some(DecodeError::Corrupt("varint exceeds u32"));
        assert_eq!(taken(&[1, 0, 0, 0x80, 0x3F, 7], None), Ok((6, 1)));
        assert!(taken(&[1, 0, 0, 0x80], None).is_err(), "weight cut short");
        assert!(
            taken(&[1, 0, 0, 0x80, 0x3F], None).is_err(),
            "source missing"
        );
        let wide = [1, 0, 0, 0x80, 0x3F, 0xFF, 0xFF, 0xFF, 0xFF, 0x10];
        assert_eq!(taken(&wide, None).err(), past_u32);
        assert_eq!(taken(&[2, 7, 0x80, 1], Some(1.0)), Ok((4, 2)));
        let wide = [1, 0xFF, 0xFF, 0xFF, 0xFF, 0x10];
        assert_eq!(taken(&wide, Some(1.0)).err(), past_u32);
        assert!(taken(&[1], Some(1.0)).is_err(), "source missing");
    }

    proptest::proptest! {
        /// Bytes no writer wrote never panic the in-edge reader in either
        /// layout, and what it takes is a prefix of them that reads back as
        /// as many entries as it counted.
        #[test]
        fn hostile_in_edge_bytes_never_panic(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..48),
            uniform in proptest::prelude::any::<bool>(),
        ) {
            let uniform = uniform.then_some(0.25);
            if let Ok((run, n)) = take_run::<InEdge>(&mut Reader::new(&bytes), uniform) {
                let edges: Vec<InEdge> = run.entries().collect();
                proptest::prop_assert_eq!(edges.len(), n);
                proptest::prop_assert_eq!(run.bytes(), &bytes[..run.bytes().len()]);
            }
        }
    }

    #[test]
    fn layouts_combine_to_the_bit() {
        let nan = f32::from_bits(0x7FC0_1234);
        assert_eq!(Weights::of([]), Weights::Unset);
        assert_eq!(Weights::of([nan, nan]), Weights::Uniform(nan));
        assert_eq!(Weights::of([0.0, -0.0]), Weights::PerEdge);
        assert_eq!(
            Weights::Uniform(1.0).and(Weights::Unset),
            Weights::Uniform(1.0)
        );
        assert_eq!(
            Weights::PerEdge.and(Weights::Uniform(1.0)),
            Weights::PerEdge
        );
    }
}
