//! Recovery episodes: undoing what an attempt did to a local graph from a
//! journal of what it changed, not from a copy of the graph.
//!
//! A Migration attempt (§5.2) rewrites a small, known part of a survivor's
//! partition — copy kinds and master nodes, location tables, a few edge
//! lists — and appends the rest: granted replicas, fresh mirrors, the full
//! state that comes with them. If a barrier inside the attempt reports a
//! further failure, the survivor must be back in its pre-attempt state before
//! it retries (§5.3). Between [`begin_episode`](Episode::begin_episode) and
//! [`commit`](Episode::commit) a graph therefore keeps a *journal*:
//!
//! * **Marks.** Where every store ended when the episode began. Stores only
//!   grow inside an episode: copies and slots are appended, and every
//!   column — an edge-cut graph's two hot columns of edge lists, the
//!   full-state store's table words and four edge columns — leaves the
//!   entries under its mark untouched: a list that changes is written at the
//!   tail and its span repointed (see [`crate::full_state`]).
//! * **Before-images.** The first change to something that predates the
//!   episode saves what it was: a copy's header — kind, master node,
//!   activation flags, slot; a slot's head — the master position and where
//!   its location tables lie, whose words are still there; a span — of a
//!   copy in a hot column or of a slot in an edge column, one kind of image
//!   for all six, since the entries it names are still where they were. Two
//!   bitmaps say whose header and whose head are saved; a span says so
//!   itself — what an episode writes starts at or past its column's mark,
//!   so a span that starts under the mark is still the one to save. Images
//!   are packed into byte logs (LEB128 words behind a tag byte), a dozen
//!   bytes apiece: an episode touches the header or the tables of about
//!   every second copy, and at the size of the structs it saves the journal
//!   would weigh half of what an encoded snapshot of the partition does.
//!
//! A graph journals its copies (and, edge-cut, its hot columns); its
//! full-state store journals itself, the same way for both engines.
//! [`rollback`](Episode::rollback) writes the images back, takes the
//! appended vertex IDs out of the index and truncates every store to its
//! mark; `commit` drops the journal. Either way the cost follows what the
//! episode changed, not the size of the partition — and a mutator that finds
//! nothing to change journals nothing.
//!
//! What an episode does *not* journal: vertex values of existing copies and
//! the active frontier, neither of which Migration writes before it
//! succeeds. Writers must go through the graph's mutators (`set_kind`,
//! `edit_locations`, `set_full_state`, …), which save the image first; code
//! that rolls every value back anyway — checkpoint recovery — writes the
//! public fields directly and keeps an encoded snapshot for its undo.

use imitator_cluster::NodeId;

use crate::ecut::{CopyKind, EcLocalGraph};
use crate::full_state::{
    EdgeLists, EdgeSpans, FullState, Head, SlotId, Span, StoreLens, COLUMNS, IN_EDGES, OUT_REMOTE,
};
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
/// log back lets a span's first image win.
#[derive(Debug, Clone, Default)]
struct Log(Vec<u8>);

impl Log {
    fn put(&mut self, mut word: u32) {
        while word >= 0x80 {
            self.0.push(word as u8 | 0x80);
            word >>= 7;
        }
        self.0.push(word as u8);
    }

    /// Appends a record: `tag`, then `words`.
    fn record(&mut self, tag: u8, words: impl IntoIterator<Item = u32>) {
        self.0.push(tag);
        for word in words {
            self.put(word);
        }
    }

    /// Appends the image of `old`, the span `owner` had in the `column`-th
    /// of the journal's columns a moment ago.
    fn record_span(&mut self, column: usize, owner: usize, old: Span) {
        let run = old.range();
        let words = [owner as u32, run.start as u32, run.len() as u32];
        self.record(SPAN + column as u8, words);
    }

    fn read(&self) -> LogReader<'_> {
        LogReader(&self.0)
    }
}

/// Reads a [`Log`] back. The log is this module's own writing: a record cut
/// short is a bug and panics on the slice index.
struct LogReader<'a>(&'a [u8]);

impl LogReader<'_> {
    /// The next record's tag, or `None` at the end of the log.
    fn tag(&mut self) -> Option<u8> {
        let (&tag, rest) = self.0.split_first()?;
        self.0 = rest;
        Some(tag)
    }

    fn get(&mut self) -> u32 {
        let (mut word, mut shift) = (0, 0);
        loop {
            let byte = self.0[0];
            self.0 = &self.0[1..];
            word |= u32::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                return word;
            }
            shift += 7;
        }
    }

    /// The span a [`Log::record_span`] record saved, once its owner is read.
    fn get_span(&mut self) -> Span {
        Span::new(self.get() as usize, self.get() as usize)
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
/// a graph's hot columns (in-edges, consumers), a store's [`COLUMNS`] edge
/// columns in their order. A span record's first word is the span's owner —
/// a copy's position, a slot's index.
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
}

/// What an open episode remembers of one store — a graph's copies and own
/// columns, or a [`FullState`]: see the module documentation.
#[derive(Debug, Clone)]
pub(crate) struct Journal<M> {
    /// The marks: what the store held when the episode began.
    marks: M,
    /// The copies (slots) under the mark whose header (head) is imaged.
    /// Spans need no such set: see [`predates`].
    seen: PosSet,
    log: Log,
}

/// A store's marks: its lengths and how many rows it had.
pub(crate) type StoreJournal = Journal<(StoreLens, usize)>;
/// An edge-cut graph's: its copies and the entries of its two hot columns.
pub(crate) type EcJournal = Journal<(usize, [usize; 2])>;
/// A vertex-cut graph's: its copies and edges (which are only appended).
pub(crate) type VcJournal = Journal<(usize, usize)>;

impl<M> Journal<M> {
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
            log: Log::default(),
        }));
    }

    fn bytes(journal: &Option<Box<Self>>) -> usize {
        journal.as_deref().map_or(0, |j| {
            std::mem::size_of::<Self>() + j.log.0.len() + j.seen.heap_bytes()
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
        let marks = (self.lens(), self.rows.len());
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
            let at = log.get() as usize;
            if tag == FIXED {
                self.heads[at] = Head {
                    master_pos: log.get(),
                    words: log.get(),
                    replicas: log.get() as u16,
                    mirrors: log.get() as u16,
                };
            } else {
                let (column, span) = (usize::from(tag - SPAN), log.get_span());
                if restored.insert((at * COLUMNS + column) as u32) {
                    self.rows[at][column] = span;
                }
            }
        }
        let (lens, rows) = journal.marks;
        self.truncate(lens, rows);
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

    /// Saves every edge span of `slot` that differs from what it was in
    /// `before` (a moment ago) and is the one the episode found: call right
    /// after writing the row of a slot the episode may predate.
    pub(crate) fn note_spans(&mut self, slot: SlotId, before: EdgeSpans) {
        let Some(j) = self.journal.as_deref_mut() else {
            return;
        };
        if slot.index() >= j.marks.0.slots {
            return;
        }
        let after = self.rows[slot.index()];
        let floors = j.marks.0.edges.per_column();
        for (column, (old, new)) in before.into_iter().zip(after).enumerate() {
            if old != new && predates(old, floors[column]) {
                j.log.record_span(column, slot.index(), old);
            }
        }
    }
}

impl<V> Episode for EcLocalGraph<V> {
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
            let at = log.get() as usize;
            let v = &mut self.verts[at];
            if tag == FIXED {
                let bits = log.get();
                v.kind = kind_from_bits(bits & 0b11);
                v.active = bits & 0b100 != 0;
                v.next_active = bits & 0b1000 != 0;
                v.last_activate = bits & 0b1_0000 != 0;
                v.master_node = NodeId::new(log.get());
                v.meta = log.get_slot();
            } else {
                let (column, span) = (usize::from(tag - SPAN), log.get_span());
                if restored.insert((at * 2 + column) as u32) {
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
    }

    fn journal_bytes(&self) -> usize {
        Journal::bytes(&self.journal) + self.full.journal_bytes()
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
    /// its remote out-edges a run of its slot's. A master promoted in the
    /// episode differs in all three — its old mirrors' lists name the dead
    /// owner's positions — and is the one whose slot's owner-local lists,
    /// which a master's slot does not keep, the episode wrote (emptied).
    pub(crate) fn lists_changed_in_episode(&self, pos: u32) -> EdgeLists {
        let Some(j) = self.journal.as_deref() else {
            return EdgeLists::ALL;
        };
        let (v, floor) = (&self.verts[pos as usize], self.full.floor().edges);
        let slot_wrote = |column, floor| {
            let span = v.meta.map(|slot| self.full.row(slot)[column]);
            span.is_none_or(|span| written(span, floor))
        };
        if slot_wrote(IN_EDGES, floor.in_edges) {
            return EdgeLists::ALL;
        }
        let ([hot_in, hot_out], remote) = (j.marks.1, slot_wrote(OUT_REMOTE, floor.out_remote));
        let lists = [
            (EdgeLists::IN_EDGES, written(v.in_edges, hot_in)),
            (EdgeLists::OUT_LOCAL, written(v.out_local, hot_out)),
            (EdgeLists::OUT_REMOTE, remote),
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
            let bits = u32::from(v.kind.bits())
                | u32::from(v.active) << 2
                | u32::from(v.next_active) << 3
                | u32::from(v.last_activate) << 4;
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

impl<V> Episode for VcLocalGraph<V> {
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
        log.record_span(3, 70_000, Span::new(2_000_000, 5));
        log.record(
            FIXED,
            [slot_word(None), slot_word(Some(SlotId::from_index(9)))],
        );
        let mut back = log.read();
        assert_eq!(back.tag(), Some(FIXED));
        assert_eq!(words.map(|_| back.get()), words);
        assert_eq!((back.tag(), back.get()), (Some(SPAN + 3), 70_000));
        assert_eq!(back.get_span(), Span::new(2_000_000, 5));
        assert_eq!(back.tag(), Some(FIXED));
        assert_eq!(back.get_slot(), None);
        assert_eq!(back.get_slot(), Some(SlotId::from_index(9)));
        assert_eq!(back.tag(), None);
    }
}
