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
//!   grow inside an episode: copies and slots are appended, and the
//!   full-state columns leave the entries under their mark untouched — a
//!   list that changes is written at the tail and its span repointed (see
//!   [`crate::full_state`]).
//! * **Before-images.** The first change to something that predates the
//!   episode saves what it was: a copy's header — kind, master node,
//!   activation flags, slot — with the length of its consumer list (which
//!   only grows); a slot's location tables; a slot's span in one column; an
//!   in-edge list that is replaced. Images are packed into one byte log
//!   (LEB128 words behind a tag byte), a dozen bytes apiece: an episode
//!   touches the header or the tables of about every second copy, and at
//!   the size of the structs it saves the journal would weigh half of what
//!   an encoded snapshot of the partition does.
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

/// Before-images, packed: each record a tag byte and LEB128 words. Every
/// record is the *first* image of what it names (the journals' seen-sets see
/// to that), so reading them back in any order restores the same state.
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

/// Record tags. `COPY`: a copy's header. `IN_EDGES`: a copy's replaced
/// in-edge list. `TABLES`: a slot's location tables. `SPAN`: a slot's span
/// in one column.
const COPY: u8 = 0;
const IN_EDGES: u8 = 1;
const TABLES: u8 = 2;
const SPAN: u8 = 3;

/// What an open episode remembers of an [`EcLocalGraph`]: see the module
/// documentation.
#[derive(Debug, Clone)]
pub(crate) struct EcJournal {
    /// The marks: copies, slots and column entries the graph held when the
    /// episode began.
    verts: usize,
    slots: usize,
    cols: ColumnLens,
    /// What is already imaged: per copy under the mark its header (`2 × pos`)
    /// and its in-edges (`2 × pos + 1`); per slot under the mark its tables
    /// (`(1 + COLUMNS) × slot`) and its span in each column (the keys after).
    seen_copies: PosSet,
    seen_slots: PosSet,
    log: Log,
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
        let (slots, cols) = self.full_state_lens();
        self.journal = Some(Box::new(EcJournal {
            verts: self.verts.len(),
            slots,
            cols,
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
                    v.out_local.truncate(log.get() as usize);
                }
                IN_EDGES => {
                    let edges = (0..log.get()).map(|_| (log.get(), f32::from_bits(log.get())));
                    self.verts[at].in_edges = edges.collect();
                }
                TABLES => self.full.slots[at].loc = log.get_locations(),
                SPAN => {
                    let span = Span::new(log.get() as usize, log.get() as usize);
                    *self.full.slots[at / COLUMNS].span_mut(at % COLUMNS) = span;
                }
                _ => unreachable!("journal record tag {tag}"),
            }
        }
        for v in &self.verts[journal.verts..] {
            self.index.remove(v.vid);
        }
        self.verts.truncate(journal.verts);
        self.full.truncate(journal.slots, journal.cols);
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

impl<V> EcLocalGraph<V> {
    /// The column lengths no writer may overwrite under: the episode's marks,
    /// or zero.
    pub(crate) fn floor(&self) -> ColumnLens {
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
        if (pos as usize) < j.verts && j.seen_copies.insert(2 * pos) {
            let v = &self.verts[pos as usize];
            let bits = u32::from(v.kind.bits())
                | u32::from(v.active) << 2
                | u32::from(v.next_active) << 3
                | u32::from(v.last_activate) << 4;
            let slot = v.meta.map_or(0, |slot| slot.index() as u32 + 1);
            j.log.0.push(COPY);
            j.log.put_all([
                pos,
                bits,
                v.master_node.raw(),
                slot,
                v.out_local.len() as u32,
            ]);
        }
    }

    /// Saves the in-edges of the copy at `pos` before their first
    /// replacement in an episode the copy predates.
    pub(crate) fn touch_in_edges(&mut self, pos: u32) {
        let Some(j) = self.journal.as_deref_mut() else {
            return;
        };
        if (pos as usize) < j.verts && j.seen_copies.insert(2 * pos + 1) {
            let edges = &self.verts[pos as usize].in_edges;
            j.log.0.push(IN_EDGES);
            j.log.put_all([pos, edges.len() as u32]);
            for &(src, weight) in edges {
                j.log.put_all([src, weight.to_bits()]);
            }
        }
    }

    /// Saves the location tables of `slot` before their first change in an
    /// episode the slot predates.
    pub(crate) fn touch_tables(&mut self, slot: SlotId) {
        let Some(j) = self.journal.as_deref_mut() else {
            return;
        };
        let key = (slot.index() * (1 + COLUMNS)) as u32;
        if slot.index() < j.slots && j.seen_slots.insert(key) {
            j.log.0.push(TABLES);
            j.log.put(slot.index() as u32);
            j.log.put_locations(&self.full.slots[slot.index()].loc);
        }
    }

    /// Saves every span of `slot` that differs from what it was in `before`
    /// (a moment ago), unless an image of it exists: call right after
    /// writing a slot the episode may predate.
    pub(crate) fn note_spans(&mut self, slot: SlotId, before: [Span; COLUMNS]) {
        let Some(j) = self.journal.as_deref_mut() else {
            return;
        };
        if slot.index() >= j.slots {
            return;
        }
        let after = self.full.slots[slot.index()].spans();
        for (col, (old, new)) in before.into_iter().zip(after).enumerate() {
            let key = (slot.index() * (1 + COLUMNS) + 1 + col) as u32;
            if old != new && j.seen_slots.insert(key) {
                let run = old.range();
                j.log.0.push(SPAN);
                j.log.put_all([
                    (slot.index() * COLUMNS + col) as u32,
                    run.start as u32,
                    run.len() as u32,
                ]);
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
