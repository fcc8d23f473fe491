//! Recovery episodes: undoing what an attempt did to a local graph from a
//! journal of what it changed, not from a copy of the graph.
//!
//! A recovery attempt (§5.2, §5.3) rewrites a known part of a survivor's
//! partition — copy kinds and master nodes, location tables, a few edge
//! lists, and, on the checkpoint paths, every value — and appends the rest:
//! granted replicas, fresh mirrors, the full state that
//! comes with them. If a barrier inside the attempt reports a further
//! failure, the survivor must be back in its pre-attempt state before it
//! retries (§5.3). Between [`begin_episode`](Episode::begin_episode) and
//! [`commit`](Episode::commit) a graph therefore keeps a *journal*:
//!
//! * **Marks.** Where every store ended when the episode began. Stores only
//!   grow inside an episode: copies and slots are appended, and every
//!   column — an edge-cut graph's two hot columns of edge lists, the
//!   full-state store's table words and byte column of blocks — leaves the
//!   entries under its mark untouched: a list that changes is written at
//!   the tail and its span repointed (see [`crate::full_state`]). The marks keep the store's weight layout too,
//!   which writing an in-edge list of another weight may change.
//! * **Before-images.** The first change to something that predates the
//!   episode saves what it was: a copy's header — kind, master node,
//!   activation flags, slot; a slot's head — the master position and where
//!   its location tables lie, whose words are still there; a span — of a
//!   copy in a hot column or of a slot's block — one kind of image for all
//!   of them, since the entries it names are still where they were. Two
//!   bitmaps say whose header and whose head are saved; a span says so
//!   itself — what an episode writes starts at or past its column's mark,
//!   so a span that starts under the mark is still the one to save. A
//!   promotion writes no byte of a slot — a mirror's block serves the
//!   master it becomes as it is —, so a third bitmap, `promoted`, names the
//!   slots whose copy the episode turned from mirror into master, for
//!   [`FullStateBatches::changed_lists`](crate::FullStateBatches::changed_lists). Images
//!   are packed into byte logs (LEB128 words behind a tag byte), a dozen
//!   bytes apiece: an episode touches the header or the tables of about
//!   every second copy, and at the size of the structs it saves the journal
//!   would weigh half of what the partition serialises to.
//! * **The value column.** An attempt that writes a value it found rolls
//!   the partition back to a checkpoint, which writes every value and flag:
//!   the column is imaged whole, each copy's value beside its flags, on the
//!   first value write ([`touch_values`](Episode::touch_values)); writers
//!   then set values and flags directly.
//!
//! A graph journals its copies (and, edge-cut, its hot columns); its
//! full-state store journals itself, the same way for both engines.
//! [`rollback`](Episode::rollback) writes the images back, takes the
//! appended vertex IDs out of the index, truncates every store to its mark
//! and, if the value column was imaged, rebuilds the edge-cut active
//! frontier; `commit` drops the journal. Either way the cost follows what
//! the episode changed, not the size of the partition — and a mutator that
//! finds nothing to change journals nothing. Writers of anything but values
//! and flags must go through the graph's mutators (`set_kind`,
//! `edit_locations`, `set_full_state`, …), which save the image first.

use imitator_cluster::NodeId;

use crate::ecut::{CopyKind, EcLocalGraph, EcVertex};
use crate::full_state::{EdgeLists, FullState, Head, SlotId, Span, StoreLens};
use crate::runs::Weights;
use crate::vcut::VcLocalGraph;

/// A set of array positions, kept as a bitmap that grows with the largest
/// position inserted. Iteration is ascending.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PosSet {
    words: Vec<u64>,
}

impl PosSet {
    /// An empty set with room for the positions under `len` already made:
    /// inserting them allocates nothing more.
    pub fn covering(len: u32) -> Self {
        PosSet {
            words: vec![0; (len as usize).div_ceil(64)],
        }
    }

    /// Adds `pos`; says whether it was absent.
    pub fn insert(&mut self, pos: u32) -> bool {
        let (word, bit) = (pos as usize / 64, 1u64 << (pos % 64));
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let absent = self.words[word] & bit == 0;
        self.words[word] |= bit;
        absent
    }

    /// Removes `pos`; says whether it was present.
    pub fn remove(&mut self, pos: u32) -> bool {
        let present = self.contains(pos);
        if present {
            self.words[pos as usize / 64] &= !(1u64 << (pos % 64));
        }
        present
    }

    /// Whether `pos` is in the set.
    pub fn contains(&self, pos: u32) -> bool {
        let word = self.words.get(pos as usize / 64);
        word.is_some_and(|w| w & (1u64 << (pos % 64)) != 0)
    }

    /// Positions in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The positions in the set, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(word, &bits)| {
            let mut left = bits;
            std::iter::from_fn(move || {
                let bit = (left != 0).then(|| left.trailing_zeros())?;
                left &= left - 1;
                Some((word * 64) as u32 + bit)
            })
        })
    }

    fn heap_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }
}

/// Before-images, packed: each record a tag byte and LEB128 words. A header
/// or head record is the *first* image of what it names (the journals'
/// seen-sets see to that); a span may be imaged again, and whoever reads the
/// log back lets a span's first image win. A span record writes its owner
/// and start as the difference from the last span record's of its column
/// (zigzagged): an episode rewrites lists in position order, and a loaded
/// column lays them out in that order, so the differences are small where
/// the words are wide.
#[derive(Debug, Clone, Default)]
struct Log {
    bytes: Vec<u8>,
    /// Per column, the owner and start of its last span record.
    last: [[u32; 2]; 2],
}

impl Log {
    fn put(&mut self, mut word: u64) {
        while word >= 0x80 {
            self.bytes.push(word as u8 | 0x80);
            word >>= 7;
        }
        self.bytes.push(word as u8);
    }

    /// Appends a record: `tag`, then `words`.
    fn record(&mut self, tag: u8, words: impl IntoIterator<Item = u32>) {
        self.bytes.push(tag);
        for word in words {
            self.put(word.into());
        }
    }

    /// Appends the image of `old`, the span `owner` had in the `column`-th
    /// of the journal's columns a moment ago.
    fn record_span(&mut self, column: usize, owner: usize, old: Span) {
        self.bytes.push(SPAN + column as u8);
        let run = old.range();
        for (last, now) in self.last[column].into_iter().zip([owner, run.start]) {
            let step = now as i64 - i64::from(last);
            self.put((step << 1 ^ step >> 63) as u64);
        }
        self.last[column] = [owner as u32, run.start as u32];
        self.put(run.len() as u64);
    }

    fn read(&self) -> LogReader<'_> {
        LogReader {
            bytes: &self.bytes,
            last: [[0; 2]; 2],
        }
    }
}

/// Reads a [`Log`] back. The log is this module's own writing: a record cut
/// short is a bug and panics on the slice index.
struct LogReader<'a> {
    bytes: &'a [u8],
    last: [[u32; 2]; 2],
}

impl LogReader<'_> {
    /// The next record's tag, or `None` at the end of the log.
    fn tag(&mut self) -> Option<u8> {
        let (&tag, rest) = self.bytes.split_first()?;
        self.bytes = rest;
        Some(tag)
    }

    fn get_word(&mut self) -> u64 {
        let (mut word, mut shift) = (0, 0);
        loop {
            let byte = self.bytes[0];
            self.bytes = &self.bytes[1..];
            word |= u64::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                return word;
            }
            shift += 7;
        }
    }

    fn get(&mut self) -> u32 {
        self.get_word() as u32
    }

    /// The owner and span a [`Log::record_span`] record saved in `column`,
    /// once its tag is read.
    fn get_span(&mut self, column: usize) -> (usize, Span) {
        for word in 0..2 {
            let zigzag = self.get_word();
            let step = (zigzag >> 1) as i64 ^ -((zigzag & 1) as i64);
            let last = &mut self.last[column][word];
            *last = (i64::from(*last) + step) as u32;
        }
        let [owner, start] = self.last[column];
        let len = self.get_word() as usize;
        (owner as usize, Span::new(start as usize, len))
    }

    /// A copy's slot as [`slot_word`] wrote it.
    fn get_slot(&mut self) -> Option<SlotId> {
        let slot = self.get().checked_sub(1);
        slot.map(|i| SlotId::from_index(i as usize))
    }
}

/// A copy's slot as one journal word: 0 for none.
fn slot_word(slot: Option<SlotId>) -> u32 {
    slot.map_or(0, |slot| slot.index() as u32 + 1)
}

/// The role a journal record's two kind bits stand for. The log is this
/// module's own writing.
fn kind_from_bits(bits: u32) -> CopyKind {
    CopyKind::from_bits(bits as u8).expect("journaled copy kind")
}

/// Record tags. `FIXED`: a copy's header in a graph's log, a slot's head in
/// a store's. `SPAN + column`: a span in that one of the journal's columns —
/// a graph's hot columns (in-edges, consumers), a store's byte column
/// (column 0). A span record's first word is the span's owner — a copy's
/// position, a slot's index.
const FIXED: u8 = 0;
const SPAN: u8 = 1;

/// Whether `span`, a moment ago the span of a copy or slot that predates the
/// episode, may be the one the episode found there, given the mark `floor`
/// of its column. The column writers never write under the mark and place
/// what they write inside an episode at or past it (see
/// [`crate::full_state`]): a span starting under the mark has not been
/// written in this episode, one starting past it has. Exactly *at* the mark
/// sit both an empty list the episode found at the column's end and the
/// first list it wrote; those are saved each time they change, and
/// rolling back lets the first image of a span win.
fn predates(span: Span, floor: usize) -> bool {
    span.range().start <= floor
}

/// Whether `span` may have been written in the episode whose mark of its
/// column is `floor`: the converse of [`predates`], and like it true of both
/// kinds of empty span exactly at the mark.
fn written(span: Span, floor: usize) -> bool {
    span.range().start >= floor
}

/// A local graph that journals recovery episodes: see the module
/// documentation.
pub trait Episode {
    /// Opens an episode: from here to [`Episode::commit`] or
    /// [`Episode::rollback`], what the graph's mutators change is journaled.
    ///
    /// # Panics
    ///
    /// Panics if an episode is already open.
    fn begin_episode(&mut self);

    /// Closes the episode, keeping what it did.
    fn commit(&mut self);

    /// Closes the episode, undoing what it did: afterwards the graph holds
    /// what it held at [`Episode::begin_episode`], in stores of the same
    /// lengths. Without an open episode nothing happens.
    fn rollback(&mut self);

    /// Bytes the open episode's journal holds (0 without one): the packed
    /// images and the seen-sets, counted from lengths so that equal episodes
    /// report equal sizes.
    fn journal_bytes(&self) -> usize;

    /// Images the value column — every copy's value and, edge-cut, its
    /// activation flags — before the open episode's first value write:
    /// afterwards a writer sets those directly. Does nothing without an
    /// open episode or once the column is imaged.
    fn touch_values(&mut self);
}

/// What an open episode remembers of one store — a graph's copies and own
/// columns, or a [`FullState`]: see the module documentation. `I` is what
/// a graph images of one copy's value (a store has none).
#[derive(Debug, Clone)]
pub(crate) struct Journal<M, I = ()> {
    /// The marks: what the store held when the episode began.
    marks: M,
    /// The copies (slots) under the mark whose header (head) is imaged.
    /// Spans need no such set: see [`predates`].
    seen: PosSet,
    /// A store's slots whose copy the episode promoted from mirror to
    /// master. (A graph's journal leaves it empty.)
    promoted: PosSet,
    log: Log,
    /// The value column of the copies under the mark, once imaged.
    values: Option<Vec<I>>,
}

/// A store's marks: its lengths, how many rows it had and its weight layout.
pub(crate) type StoreJournal = Journal<(StoreLens, usize, Weights)>;
/// An edge-cut graph's: its copies and the entries of its two hot columns;
/// a copy's value images with its flags ([`flag_bits`]).
pub(crate) type EcJournal<V> = Journal<(usize, [usize; 2]), (V, u8)>;
/// A vertex-cut graph's: its copies and edges (which are only appended).
pub(crate) type VcJournal<V> = Journal<(usize, usize), V>;

impl<M, I> Journal<M, I> {
    /// The journal of an episode that finds `marks`, into `slot`.
    ///
    /// # Panics
    ///
    /// Panics if an episode is already open there.
    fn open(slot: &mut Option<Box<Self>>, marks: M) {
        assert!(slot.is_none(), "an episode is already open");
        *slot = Some(Box::new(Journal {
            marks,
            seen: PosSet::default(),
            promoted: PosSet::default(),
            log: Log::default(),
            values: None,
        }));
    }

    fn bytes(journal: &Option<Box<Self>>) -> usize {
        journal.as_deref().map_or(0, |j| {
            let values = j.values.as_ref().map_or(0, Vec::len);
            std::mem::size_of::<Self>()
                + j.log.bytes.len()
                + j.seen.heap_bytes()
                + j.promoted.heap_bytes()
                + values * std::mem::size_of::<I>()
        })
    }

    /// Whether the fixed part of item `at` — one of the `len` the episode
    /// found — is yet to be imaged, which the caller now does.
    fn first_touch(&mut self, at: usize, len: usize) -> bool {
        at < len && self.seen.insert(at as u32)
    }
}

impl FullState {
    pub(crate) fn begin_episode(&mut self) {
        let marks = (self.lens(), self.rows.len(), self.weights);
        Journal::open(&mut self.journal, marks);
    }

    pub(crate) fn commit(&mut self) {
        self.journal = None;
    }

    pub(crate) fn rollback(&mut self) {
        let Some(journal) = self.journal.take() else {
            return;
        };
        // The few spans imaged twice (see `predates`) go back to their first.
        let mut restored = PosSet::default();
        let mut log = journal.log.read();
        while let Some(tag) = log.tag() {
            if tag == FIXED {
                let at = log.get() as usize;
                self.heads[at] = Head {
                    master_pos: log.get(),
                    words: log.get(),
                    replicas: log.get() as u16,
                    mirrors: log.get() as u16,
                };
            } else {
                let (at, block) = log.get_span(0);
                if restored.insert(at as u32) {
                    self.rows[at] = block;
                }
            }
        }
        let (lens, rows, weights) = journal.marks;
        self.truncate(lens, rows);
        self.weights = weights;
    }

    pub(crate) fn journal_bytes(&self) -> usize {
        Journal::bytes(&self.journal)
    }

    /// The column lengths no writer may overwrite under: the episode's marks,
    /// or zero.
    pub(crate) fn floor(&self) -> StoreLens {
        self.journal
            .as_deref()
            .map_or_else(Default::default, |j| j.marks.0)
    }

    /// Saves the head of `slot` before its first change in an episode the
    /// slot predates.
    pub(crate) fn touch_head(&mut self, slot: SlotId) {
        let Some(j) = self.journal.as_deref_mut() else {
            return;
        };
        let at = slot.index();
        if j.first_touch(at, j.marks.0.slots) {
            let head = self.heads[at];
            let (replicas, mirrors) = (u32::from(head.replicas), u32::from(head.mirrors));
            let image = [at as u32, head.master_pos, head.words, replicas, mirrors];
            j.log.record(FIXED, image);
        }
    }

    /// Saves `before`, the row `slot` had a moment ago, if it has changed
    /// and is the one the episode found: call right after writing the row
    /// of a slot the episode may predate.
    pub(crate) fn note_row(&mut self, slot: SlotId, before: Span) {
        let Some(j) = self.journal.as_deref_mut() else {
            return;
        };
        let at = slot.index();
        if at < j.marks.0.slots && self.rows[at] != before && predates(before, j.marks.0.runs) {
            j.log.record_span(0, at, before);
        }
    }

    /// Records that the open episode, if any, promoted the copy whose slot
    /// is `slot` from mirror to master.
    pub(crate) fn note_promoted(&mut self, slot: SlotId) {
        if let Some(j) = self.journal.as_deref_mut() {
            j.promoted.insert(slot.index() as u32);
        }
    }

    /// Whether the open episode made `slot` or promoted its copy: what the
    /// copy's mirrors held when the episode began says nothing of it.
    pub(crate) fn new_in_episode(&self, slot: SlotId) -> bool {
        self.journal.as_deref().is_some_and(|j| {
            slot.index() >= j.marks.0.slots || j.promoted.contains(slot.index() as u32)
        })
    }
}

/// The activation flags of `v` as three bits: `active`, `next_active`,
/// `last_activate`.
fn flag_bits<V>(v: &EcVertex<V>) -> u8 {
    u8::from(v.active) | u8::from(v.next_active) << 1 | u8::from(v.last_activate) << 2
}

/// Sets the activation flags of `v` from [`flag_bits`].
fn set_flag_bits<V>(v: &mut EcVertex<V>, bits: u8) {
    (v.active, v.next_active, v.last_activate) = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0);
}

impl<V: Clone> Episode for EcLocalGraph<V> {
    fn begin_episode(&mut self) {
        let hot = [self.hot_in.0.len(), self.hot_out.0.len()];
        Journal::open(&mut self.journal, (self.verts.len(), hot));
        self.full.begin_episode();
    }

    fn commit(&mut self) {
        self.journal = None;
        self.full.commit();
    }

    fn rollback(&mut self) {
        let Some(journal) = self.journal.take() else {
            return;
        };
        let mut restored = PosSet::default();
        let mut log = journal.log.read();
        while let Some(tag) = log.tag() {
            if tag == FIXED {
                let v = &mut self.verts[log.get() as usize];
                let bits = log.get();
                v.kind = kind_from_bits(bits & 0b11);
                set_flag_bits(v, (bits >> 2) as u8);
                v.master_node = NodeId::new(log.get());
                v.meta = log.get_slot();
            } else {
                let column = usize::from(tag - SPAN);
                let (at, span) = log.get_span(column);
                if restored.insert((at * 2 + column) as u32) {
                    let v = &mut self.verts[at];
                    *[&mut v.in_edges, &mut v.out_local][column] = span;
                }
            }
        }
        let (verts, hot) = journal.marks;
        for v in &self.verts[verts..] {
            self.index.remove(v.vid);
        }
        self.verts.truncate(verts);
        self.hot_in.0.truncate(hot[0]);
        self.hot_out.0.truncate(hot[1]);
        self.full.rollback();
        // The value column last: a header imaged after it holds flags the
        // episode wrote.
        if let Some(image) = journal.values {
            for (v, (value, flags)) in self.verts.iter_mut().zip(image) {
                v.value = value;
                set_flag_bits(v, flags);
            }
            self.rebuild_active_frontier();
        }
    }

    fn journal_bytes(&self) -> usize {
        Journal::bytes(&self.journal) + self.full.journal_bytes()
    }

    /// The column holds the activation flags too, and rollback writes it
    /// after the headers, so no header may be imaged before it: an attempt
    /// that writes values rolls them back first.
    fn touch_values(&mut self) {
        if let Some(j) = self.journal.as_deref_mut().filter(|j| j.values.is_none()) {
            assert!(j.seen.is_empty(), "flags journaled before the value column");
            let copies = self.verts[..j.marks.0].iter();
            j.values = Some(copies.map(|v| (v.value.clone(), flag_bits(v))).collect());
        }
    }
}

impl<V> EcLocalGraph<V> {
    /// The hot-column lengths — in-edges, consumers — no writer may
    /// overwrite under: the episode's marks, or zero.
    pub(crate) fn hot_floor(&self) -> [usize; 2] {
        self.journal.as_deref().map_or([0; 2], |j| j.marks.1)
    }

    /// The edge lists of the master at `pos` that may differ from what its
    /// mirrors held when the open episode began
    /// ([`FullStateBatches::changed_lists`](crate::FullStateBatches::changed_lists)):
    /// those the episode wrote. A list written inside an episode starts at or
    /// past its column's mark, one that starts under it is still the one the
    /// episode found, and an empty one right at the mark counts as written.
    /// The master's in-edges and consumers are its runs of the hot columns,
    /// its remote out-edges the third run of its slot's block, rewritten
    /// with the block. A master promoted in the episode differs in all three
    /// — its old mirrors' lists name the dead owner's positions — and so does
    /// one whose slot the episode made.
    pub(crate) fn lists_changed_in_episode(&self, pos: u32) -> EdgeLists {
        let Some(j) = self.journal.as_deref() else {
            return EdgeLists::ALL;
        };
        let v = &self.verts[pos as usize];
        let Some(slot) = v.meta.filter(|&slot| !self.full.new_in_episode(slot)) else {
            return EdgeLists::ALL;
        };
        let [hot_in, hot_out] = j.marks.1;
        let lists = [
            (EdgeLists::IN_EDGES, written(v.in_edges, hot_in)),
            (EdgeLists::OUT_LOCAL, written(v.out_local, hot_out)),
            (
                EdgeLists::OUT_REMOTE,
                written(self.full.row(slot), self.full.floor().runs),
            ),
        ];
        let wrote = lists.into_iter().filter(|&(_, wrote)| wrote);
        wrote.fold(EdgeLists::NONE, |all, (list, _)| all | list)
    }

    /// Saves the header of the copy at `pos` before its first change in an
    /// episode it predates.
    pub(crate) fn touch_copy(&mut self, pos: u32) {
        let Some(j) = self.journal.as_deref_mut() else {
            return;
        };
        if j.first_touch(pos as usize, j.marks.0) {
            let v = &self.verts[pos as usize];
            let bits = u32::from(v.kind.bits()) | u32::from(flag_bits(v)) << 2;
            let header = [pos, bits, v.master_node.raw(), slot_word(v.meta)];
            j.log.record(FIXED, header);
        }
    }

    /// Saves `before`, the span the copy at `pos` had in hot column `column`
    /// (0: in-edges, 1: consumers) a moment ago, if it has changed and is the
    /// one the episode found: call right after writing a list of a copy the
    /// episode may predate.
    pub(crate) fn note_copy_span(&mut self, pos: u32, column: usize, before: Span) {
        let Some(j) = self.journal.as_deref_mut() else {
            return;
        };
        let v = &self.verts[pos as usize];
        let after = [v.in_edges, v.out_local][column];
        let (verts, hot) = j.marks;
        if (pos as usize) < verts && before != after && predates(before, hot[column]) {
            j.log.record_span(column, pos as usize, before);
        }
    }
}

impl<V: Clone> Episode for VcLocalGraph<V> {
    fn begin_episode(&mut self) {
        let marks = (self.verts.len(), self.edges.len());
        Journal::open(&mut self.journal, marks);
        self.full.begin_episode();
    }

    fn commit(&mut self) {
        self.journal = None;
        self.full.commit();
    }

    fn rollback(&mut self) {
        let Some(journal) = self.journal.take() else {
            return;
        };
        let mut log = journal.log.read();
        while log.tag().is_some() {
            let v = &mut self.verts[log.get() as usize];
            v.kind = kind_from_bits(log.get());
            v.master_node = NodeId::new(log.get());
            v.meta = log.get_slot();
        }
        let image = journal.values.into_iter().flatten();
        for (v, value) in self.verts.iter_mut().zip(image) {
            v.value = value;
        }
        let (verts, edges) = journal.marks;
        for v in &self.verts[verts..] {
            self.index.remove(v.vid);
        }
        self.verts.truncate(verts);
        self.edges.truncate(edges);
        self.full.rollback();
    }

    fn journal_bytes(&self) -> usize {
        Journal::bytes(&self.journal) + self.full.journal_bytes()
    }

    /// The dense engine keeps no activation flags: a copy's image is its
    /// value.
    fn touch_values(&mut self) {
        if let Some(j) = self.journal.as_deref_mut().filter(|j| j.values.is_none()) {
            j.values = Some(
                self.verts[..j.marks.0]
                    .iter()
                    .map(|v| v.value.clone())
                    .collect(),
            );
        }
    }
}

impl<V> VcLocalGraph<V> {
    /// Saves the copy at `pos` — kind, master node, slot — before its first
    /// change in an episode it predates.
    pub(crate) fn touch_copy(&mut self, pos: u32) {
        let Some(j) = self.journal.as_deref_mut() else {
            return;
        };
        if j.first_touch(pos as usize, j.marks.0) {
            let v = &self.verts[pos as usize];
            let kind = u32::from(v.kind.bits());
            let header = [pos, kind, v.master_node.raw(), slot_word(v.meta)];
            j.log.record(FIXED, header);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pos_set_inserts_removes_and_walks_ascending() {
        let mut set = PosSet::default();
        assert!(set.is_empty() && !set.contains(700));
        for pos in [700, 3, 64, 63] {
            assert!(set.insert(pos));
        }
        assert!(!set.insert(63), "already there");
        assert_eq!(set.len(), 4);
        assert_eq!(set.iter().collect::<Vec<_>>(), [3, 63, 64, 700]);
        assert!(set.remove(64) && !set.remove(64) && !set.remove(100_000));
        assert_eq!(set.iter().collect::<Vec<_>>(), [3, 63, 700]);
    }

    #[test]
    fn log_records_read_back() {
        let words = [0, 1, 127, 128, 16_383, 16_384, u32::MAX];
        let mut log = Log::default();
        log.record(FIXED, words);
        // Spans of a column write their owner and start as differences
        // from the last, either way; another column keeps its own.
        let spans = [
            (1, 70_000, Span::new(2_000_000, 5)),
            (1, 69_999, Span::new(1_999_900, 0)),
            (0, 3, Span::new(u32::MAX as usize - 1, 1)),
            (1, u32::MAX as usize, Span::new(0, 7)),
        ];
        for (column, owner, span) in spans {
            log.record_span(column, owner, span);
        }
        log.record(
            FIXED,
            [slot_word(None), slot_word(Some(SlotId::from_index(9)))],
        );
        let mut back = log.read();
        assert_eq!(back.tag(), Some(FIXED));
        assert_eq!(words.map(|_| back.get()), words);
        for (column, owner, span) in spans {
            assert_eq!(back.tag(), Some(SPAN + column as u8));
            assert_eq!(back.get_span(column), (owner, span));
        }
        assert_eq!(back.tag(), Some(FIXED));
        assert_eq!(back.get_slot(), None);
        assert_eq!(back.get_slot(), Some(SlotId::from_index(9)));
        assert_eq!(back.tag(), None);
    }
}
