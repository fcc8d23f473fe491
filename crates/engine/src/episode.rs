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
//!   column — the two hot columns of edge lists and the four of full state
//!   — leaves the entries under its mark untouched: a list that changes is
//!   written at the tail and its span repointed (see [`crate::full_state`]).
//! * **Before-images.** The first change to something that predates the
//!   episode saves what it was: a copy's header — kind, master node,
//!   activation flags, slot; a slot's location tables; a span — of a copy in
//!   a hot column or of a slot in a cold one, one kind of image for all six
//!   columns, since the entries it names are still where they were. Two
//!   bitmaps say whose header and whose tables are saved; a span says so
//!   itself — what an episode writes starts at or past its column's mark,
//!   so a span that starts under the mark is still the one to save. Images
//!   are packed into one byte log (LEB128 words behind a tag byte), a dozen
//!   bytes apiece: an episode touches the header or the tables of about
//!   every second copy, and at the size of the structs it saves the journal
//!   would weigh half of what an encoded snapshot of the partition does.
//!
//! [`rollback`](Episode::rollback) writes the images back, takes the
//! appended vertex IDs out of the index and truncates every store to its
//! mark; `commit` drops the journal. Either way the cost follows what the
//! episode changed, not the size of the partition.
//!
//! What an episode does *not* journal: vertex values of existing copies and
//! the active frontier, neither of which Migration writes before it
//! succeeds. Writers must go through the graph's mutators (`set_kind`,
//! `locations_mut`, `set_full_state`, …), which save the image first; code
//! that rolls every value back anyway — checkpoint recovery — writes the
//! public fields directly and keeps an encoded snapshot for its undo.

use imitator_cluster::NodeId;

use crate::ecut::{CopyKind, EcLocalGraph};
use crate::full_state::{ColumnLens, SlotId, Span, COLUMNS};
use crate::inline_list::InlineList;
use crate::locations::Locations;
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
/// or tables record is the *first* image of what it names (the journals'
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

    fn put_all(&mut self, words: impl IntoIterator<Item = u32>) {
        for word in words {
            self.put(word);
        }
    }

    fn put_locations(&mut self, loc: &Locations) {
        self.put_all([loc.master_pos(), loc.replica_nodes().len() as u32]);
        for (node, &pos) in loc.replica_nodes().iter().zip(loc.replica_positions()) {
            self.put_all([node.raw(), pos]);
        }
        self.put(loc.mirror_nodes().len() as u32);
        self.put_all(loc.mirror_nodes().iter().map(|node| node.raw()));
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

    fn get_locations(&mut self) -> Locations {
        let master_pos = self.get();
        let replicas = self.get() as usize;
        let mut nodes = InlineList::with_capacity(replicas);
        let mut positions = InlineList::with_capacity(replicas);
        for _ in 0..replicas {
            nodes.push(NodeId::new(self.get()));
            positions.push(self.get());
        }
        let mirrors = (0..self.get()).map(|_| NodeId::new(self.get())).collect();
        Locations::new(master_pos, nodes, positions, mirrors)
    }
}

/// The role a journal record's two kind bits stand for. The log is this
/// module's own writing.
fn kind_from_bits(bits: u32) -> CopyKind {
    CopyKind::from_bits(bits as u8).expect("journaled copy kind")
}

/// Record tags. `COPY`: a copy's header. `TABLES`: a slot's location tables.
/// `SPAN + column`: a span in that one of the graph's [`SPANS`] columns.
const COPY: u8 = 0;
const TABLES: u8 = 1;
const SPAN: u8 = 2;

/// The columns a span can lie in: a copy's two hot columns (in-edges,
/// consumers), then a slot's [`COLUMNS`] cold ones in [`Slot::spans`] order.
/// A span record's tag names the column, its first word the span's owner —
/// a copy's position for a hot column, a slot's index for a cold one.
///
/// [`Slot::spans`]: crate::full_state::Slot::spans
const HOT_COLUMNS: usize = 2;
const SPANS: usize = HOT_COLUMNS + COLUMNS;

/// The column lengths an episode's writers may not overwrite under.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Floor {
    pub(crate) hot_in: usize,
    pub(crate) hot_out: usize,
    pub(crate) cold: ColumnLens,
}

/// What an open episode remembers of an [`EcLocalGraph`]: see the module
/// documentation.
#[derive(Debug, Clone)]
pub(crate) struct EcJournal {
    /// The marks: copies, slots and column entries the graph held when the
    /// episode began.
    verts: usize,
    slots: usize,
    cols: Floor,
    /// What is already imaged: the copies under the mark whose header is,
    /// and the slots under the mark whose tables are. Spans need no such
    /// sets: see [`predates`].
    seen_copies: PosSet,
    seen_slots: PosSet,
    log: Log,
}

/// Whether `span`, a moment ago the span of a copy or slot that predates the
/// episode, may be the one the episode found there, given the mark `floor`
/// of its column. The column writers never write under the mark and place
/// what they write inside an episode at or past it (see
/// [`crate::full_state`]): a span starting under the mark has not been
/// written in this episode, one starting past it has. Exactly *at* the mark
/// sit both an empty list the episode found at the column's end and the
/// first list it wrote; those are saved each time they change, and
/// [`Episode::rollback`] lets the first image of a span win.
fn predates(span: Span, floor: usize) -> bool {
    span.range().start <= floor
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

impl<V> Episode for EcLocalGraph<V> {
    fn begin_episode(&mut self) {
        assert!(self.journal.is_none(), "an episode is already open");
        let (slots, cold) = self.full_state_lens();
        self.journal = Some(Box::new(EcJournal {
            verts: self.verts.len(),
            slots,
            cols: Floor {
                hot_in: self.hot_in.0.len(),
                hot_out: self.hot_out.0.len(),
                cold,
            },
            seen_copies: PosSet::default(),
            seen_slots: PosSet::default(),
            log: Log::default(),
        }));
    }

    fn commit(&mut self) {
        self.journal = None;
    }

    fn rollback(&mut self) {
        let Some(journal) = self.journal.take() else {
            return;
        };
        // The few spans imaged twice (see `predates`) go back to their first.
        let mut restored = PosSet::default();
        let mut log = journal.log.read();
        while let Some(tag) = log.tag() {
            let at = log.get() as usize;
            match tag {
                COPY => {
                    let v = &mut self.verts[at];
                    let bits = log.get();
                    v.kind = kind_from_bits(bits & 0b11);
                    v.active = bits & 0b100 != 0;
                    v.next_active = bits & 0b1000 != 0;
                    v.last_activate = bits & 0b1_0000 != 0;
                    v.master_node = NodeId::new(log.get());
                    let slot = log.get().checked_sub(1);
                    v.meta = slot.map(|i| SlotId::from_index(i as usize));
                }
                TABLES => self.full.slots[at].loc = log.get_locations(),
                _ => {
                    let span = Span::new(log.get() as usize, log.get() as usize);
                    let column = usize::from(tag - SPAN);
                    let spot = match column {
                        0 => &mut self.verts[at].in_edges,
                        1 => &mut self.verts[at].out_local,
                        cold if cold < SPANS => self.full.slots[at].span_mut(cold - HOT_COLUMNS),
                        _ => unreachable!("journal record tag {tag}"),
                    };
                    if restored.insert((at * SPANS + column) as u32) {
                        *spot = span;
                    }
                }
            }
        }
        for v in &self.verts[journal.verts..] {
            self.index.remove(v.vid);
        }
        self.verts.truncate(journal.verts);
        self.hot_in.0.truncate(journal.cols.hot_in);
        self.hot_out.0.truncate(journal.cols.hot_out);
        self.full.truncate(journal.slots, journal.cols.cold);
    }

    fn journal_bytes(&self) -> usize {
        self.journal.as_deref().map_or(0, |j| {
            std::mem::size_of::<EcJournal>()
                + j.log.0.len()
                + j.seen_copies.heap_bytes()
                + j.seen_slots.heap_bytes()
        })
    }
}

impl EcJournal {
    /// Saves `old`, the span `owner` had in `column` (numbered as in
    /// [`SPANS`]) a moment ago. The caller has checked that it is the span
    /// the episode found.
    fn put_span(&mut self, owner: usize, column: usize, old: Span) {
        let run = old.range();
        self.log.0.push(SPAN + column as u8);
        self.log
            .put_all([owner as u32, run.start as u32, run.len() as u32]);
    }
}

impl<V> EcLocalGraph<V> {
    /// The column lengths no writer may overwrite under: the episode's marks,
    /// or zero.
    pub(crate) fn floor(&self) -> Floor {
        self.journal
            .as_deref()
            .map_or_else(Default::default, |j| j.cols)
    }

    /// Saves the header of the copy at `pos` before its first change in an
    /// episode it predates.
    pub(crate) fn touch_copy(&mut self, pos: u32) {
        let Some(j) = self.journal.as_deref_mut() else {
            return;
        };
        if (pos as usize) < j.verts && j.seen_copies.insert(pos) {
            let v = &self.verts[pos as usize];
            let bits = u32::from(v.kind.bits())
                | u32::from(v.active) << 2
                | u32::from(v.next_active) << 3
                | u32::from(v.last_activate) << 4;
            let slot = v.meta.map_or(0, |slot| slot.index() as u32 + 1);
            j.log.0.push(COPY);
            j.log.put_all([pos, bits, v.master_node.raw(), slot]);
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
        let floor = [j.cols.hot_in, j.cols.hot_out][column];
        if (pos as usize) < j.verts && before != after && predates(before, floor) {
            j.put_span(pos as usize, column, before);
        }
    }

    /// Saves the location tables of `slot` before their first change in an
    /// episode the slot predates.
    pub(crate) fn touch_tables(&mut self, slot: SlotId) {
        let Some(j) = self.journal.as_deref_mut() else {
            return;
        };
        if slot.index() < j.slots && j.seen_slots.insert(slot.index() as u32) {
            j.log.0.push(TABLES);
            j.log.put(slot.index() as u32);
            j.log.put_locations(&self.full.slots[slot.index()].loc);
        }
    }

    /// Saves every span of `slot` that differs from what it was in `before`
    /// (a moment ago) and is the one the episode found: call right after
    /// writing a slot the episode may predate.
    pub(crate) fn note_spans(&mut self, slot: SlotId, before: [Span; COLUMNS]) {
        let Some(j) = self.journal.as_deref_mut() else {
            return;
        };
        if slot.index() >= j.slots {
            return;
        }
        let after = self.full.slots[slot.index()].spans();
        let floors = j.cols.cold.per_column();
        for (col, (old, new)) in before.into_iter().zip(after).enumerate() {
            if old != new && predates(old, floors[col]) {
                j.put_span(slot.index(), HOT_COLUMNS + col, old);
            }
        }
    }
}

/// What an open episode remembers of a [`VcLocalGraph`]: the marks of its
/// two arrays (edges are only ever appended) and, in the log, one record per
/// copy it rewrote — kind, master node and location tables as they were.
#[derive(Debug, Clone)]
pub(crate) struct VcJournal {
    verts: usize,
    edges: usize,
    seen: PosSet,
    log: Log,
}

impl<V> Episode for VcLocalGraph<V> {
    fn begin_episode(&mut self) {
        assert!(self.journal.is_none(), "an episode is already open");
        self.journal = Some(Box::new(VcJournal {
            verts: self.verts.len(),
            edges: self.edges.len(),
            seen: PosSet::default(),
            log: Log::default(),
        }));
    }

    fn commit(&mut self) {
        self.journal = None;
    }

    fn rollback(&mut self) {
        let Some(journal) = self.journal.take() else {
            return;
        };
        let mut log = journal.log.read();
        while let Some(has_tables) = log.tag() {
            let v = &mut self.verts[log.get() as usize];
            v.kind = kind_from_bits(log.get());
            v.master_node = NodeId::new(log.get());
            v.meta = (has_tables != 0).then(|| Box::new(log.get_locations()));
        }
        for v in &self.verts[journal.verts..] {
            self.index.remove(v.vid);
        }
        self.verts.truncate(journal.verts);
        self.edges.truncate(journal.edges);
    }

    fn journal_bytes(&self) -> usize {
        self.journal.as_deref().map_or(0, |j| {
            std::mem::size_of::<VcJournal>() + j.log.0.len() + j.seen.heap_bytes()
        })
    }
}

impl<V> VcLocalGraph<V> {
    /// Saves the copy at `pos` before its first change in an episode it
    /// predates. The record's tag says whether tables follow.
    pub(crate) fn touch_copy(&mut self, pos: u32) {
        let Some(j) = self.journal.as_deref_mut() else {
            return;
        };
        if (pos as usize) < j.verts && j.seen.insert(pos) {
            let v = &self.verts[pos as usize];
            j.log.0.push(u8::from(v.meta.is_some()));
            j.log
                .put_all([pos, u32::from(v.kind.bits()), v.master_node.raw()]);
            if let Some(tables) = v.meta.as_deref() {
                j.log.put_locations(tables);
            }
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
    fn log_words_and_tables_read_back() {
        let tables = Locations::new(
            70_000,
            [NodeId::new(1), NodeId::new(300)][..].into(),
            [5, 2_000_000][..].into(),
            [NodeId::new(300)][..].into(),
        );
        let words = [0, 1, 127, 128, 16_383, 16_384, u32::MAX];
        let mut log = Log::default();
        log.0.push(TABLES);
        log.put_all(words);
        log.put_locations(&tables);
        log.put_locations(&Locations::default());
        let mut back = log.read();
        assert_eq!(back.tag(), Some(TABLES));
        assert_eq!(words.map(|_| back.get()), words);
        assert_eq!(back.get_locations(), tables);
        assert_eq!(back.get_locations(), Locations::default());
        assert_eq!(back.tag(), None);
    }
}
