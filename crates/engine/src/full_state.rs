//! Full state (§4.2): the owned form that travels in messages and the
//! per-node columnar store a local graph of either engine keeps it in.
//!
//! A node keeps the full state of all its masters and mirrors in one
//! [`FullState`]: a slot per copy over five columns shared by every slot.
//! A slot is a 12-byte *head* — the master's position, where the slot's
//! location tables start in the column of table words, and how many replicas
//! and mirrors they name — and, in an edge-cut store, a *row* of four spans
//! into the four edge columns. A vertex-cut copy's full state has no edges
//! (§4.3), so a vertex-cut store has heads and table words and nothing else:
//! rows exist from the first slot given an edge list. The lists of one slot
//! are runs of those columns, so a hundred thousand mirrors cost a handful
//! of allocations to build and to drop at any cluster size and tolerance
//! level, and snapshotting or exporting walks dense memory.
//!
//! A list changes in one of two ways and the columns are never compacted: it
//! *shrinks in place* (its span narrows; the entries behind it go dead), or
//! it is *appended at the column's tail* and the span repointed (the old run
//! goes dead). Recovery rewrites a small part of a partition once per
//! failure, so dead runs stay a small part of a column, and a graph decoded
//! from a snapshot — a checkpoint reload — is rebuilt without any.
//!
//! Inside a recovery *episode* (see [`crate::episode`]) the entries a column
//! held when the episode began are frozen: every writer below takes that
//! length as its floor, leaves a run starting under it untouched, and
//! writes the new list at the tail instead. Undoing the episode is then a
//! truncation plus the saved heads and spans; outside an episode the floor
//! is 0 and lists are overwritten in place. The writers keep one more
//! promise the journal relies on: **a span they write inside an episode
//! starts at or past the floor** — so a span that starts under it is the
//! span the episode found, and needs saving exactly when it changes. The
//! store journals itself: a writer that changes nothing saves nothing.
//!
//! A store also travels: Migration ships the full state of many copies to
//! one node as one store filled by [`FullState::push`], and the receiver
//! takes it in whole ([`FullState::extend_from`]) or record by record.

use std::num::NonZeroU32;
use std::ops::Range;

use imitator_cluster::NodeId;
use imitator_graph::Vid;
use imitator_metrics::MemSize;

use crate::episode::StoreJournal;
use crate::locations::{Locations, LocationsRef, Nodes, MAX_TABLE_NODES};

/// An out-edge whose consumer (target master) lives on another node.
///
/// The position is the target's array index on its owner — the *enhanced
/// edge information* of §5.1.2 that makes reconstruction position-addressed
/// and lock-free. The pair is the whole of the edge's other end: which vertex
/// sits there is the owner's to say, and nothing that follows the edge asks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RemoteEdge {
    /// The node mastering the target.
    pub node: NodeId,
    /// The target's array position on that node.
    pub pos: u32,
}

/// Which vertex each copy of a local graph is a copy of, by position: what a
/// master's in-edges — `(local source position, weight)` — are read through
/// to name their sources.
pub trait CopyVids {
    /// The vertex the copy at `pos` is a copy of.
    ///
    /// # Panics
    ///
    /// Panics if the graph holds no copy there.
    fn vid_at(&self, pos: u32) -> Vid;
}

/// The global source IDs of a full state's in-edges, parallel to its
/// `in_edges_owner`: Migration rebuilds a promoted master's edges on a
/// *different* node, where the owner-local positions mean nothing (§5.2.1).
///
/// A mirror keeps them, and a message carries them, as a list. A master
/// keeps none: its in-edges name local copies, and each copy names its
/// vertex, so the sources are read off the graph whenever the master's full
/// state leaves it.
#[derive(Clone, Copy)]
pub enum InEdgeSrcs<'a> {
    /// The sources as stored or received.
    Stored(&'a [Vid]),
    /// The sources of a master's own `in_edges`, looked up in the `copies`
    /// of its graph.
    Local {
        /// The master's in-edges, `(local source position, weight)`.
        in_edges: &'a [(u32, f32)],
        /// The graph the positions index.
        copies: &'a dyn CopyVids,
    },
}

impl<'a> InEdgeSrcs<'a> {
    /// How many in-edges have their source named.
    pub fn len(self) -> usize {
        match self {
            InEdgeSrcs::Stored(srcs) => srcs.len(),
            InEdgeSrcs::Local { in_edges, .. } => in_edges.len(),
        }
    }

    /// Whether no source is named.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// The sources, in in-edge order.
    pub fn iter(self) -> impl ExactSizeIterator<Item = Vid> + Clone + 'a {
        (0..self.len()).map(move |i| match self {
            InEdgeSrcs::Stored(srcs) => srcs[i],
            InEdgeSrcs::Local { in_edges, copies } => copies.vid_at(in_edges[i].0),
        })
    }
}

impl Default for InEdgeSrcs<'_> {
    fn default() -> Self {
        InEdgeSrcs::Stored(&[])
    }
}

/// Sources are equal when they name the same vertices in the same order,
/// however each side comes by them.
impl PartialEq for InEdgeSrcs<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for InEdgeSrcs<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The full state a master shares with its mirrors (§4.2), owned: the form
/// it takes in recovery messages and on the wire. A local graph stores it in
/// its [`FullState`] columns and hands it out as a [`FullStateRef`].
///
/// Everything needed to rebuild the master (and any of its replicas) *at the
/// same array positions* on a replacement node, plus the replica-location
/// tables that recovery consults to find what was lost.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MasterMeta {
    /// Where the master and its copies live.
    pub locations: Locations,
    /// The master's in-edges in owner-local `(source position, weight)`
    /// form (edge-cut replicates edges into the mirror's full state, §4.3).
    pub in_edges_owner: Vec<(u32, f32)>,
    /// Global source IDs of the in-edges (parallel to `in_edges_owner`): see
    /// [`InEdgeSrcs`].
    pub in_edge_srcs: Vec<Vid>,
    /// Owner-local positions of out-neighbours mastered on the owner.
    pub out_local_owner: Vec<u32>,
    /// Out-edges whose consumer is mastered remotely; grouped by node these
    /// give each replica's local out-edge lists on that node.
    pub out_remote: Vec<RemoteEdge>,
}

impl MasterMeta {
    /// This full state, borrowed.
    pub fn view(&self) -> FullStateRef<'_> {
        FullStateRef {
            locations: self.locations.view(),
            in_edges_owner: &self.in_edges_owner,
            in_edge_srcs: InEdgeSrcs::Stored(&self.in_edge_srcs),
            out_local_owner: &self.out_local_owner,
            out_remote: &self.out_remote,
        }
    }
}

/// One copy's full state, borrowed from wherever it is stored: the fields of
/// [`MasterMeta`] as slices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FullStateRef<'a> {
    /// Where the master and its copies live.
    pub locations: LocationsRef<'a>,
    /// See [`MasterMeta::in_edges_owner`].
    pub in_edges_owner: &'a [(u32, f32)],
    /// See [`MasterMeta::in_edge_srcs`].
    pub in_edge_srcs: InEdgeSrcs<'a>,
    /// See [`MasterMeta::out_local_owner`].
    pub out_local_owner: &'a [u32],
    /// See [`MasterMeta::out_remote`].
    pub out_remote: &'a [RemoteEdge],
}

impl<'a> FullStateRef<'a> {
    /// The owned form, every list allocated at its length.
    pub fn to_meta(&self) -> MasterMeta {
        MasterMeta {
            locations: self.locations.to_owned(),
            in_edges_owner: self.in_edges_owner.to_vec(),
            in_edge_srcs: self.in_edge_srcs.iter().collect(),
            out_local_owner: self.out_local_owner.to_vec(),
            out_remote: self.out_remote.to_vec(),
        }
    }

    /// Tables alone: the whole of a vertex-cut copy's full state.
    pub fn tables(locations: LocationsRef<'a>) -> Self {
        FullStateRef {
            locations,
            in_edges_owner: &[],
            in_edge_srcs: InEdgeSrcs::default(),
            out_local_owner: &[],
            out_remote: &[],
        }
    }

    /// How many entries this full state adds to each edge column of a store.
    pub fn lens(&self) -> ColumnLens {
        ColumnLens {
            in_edges: self.in_edges_owner.len(),
            in_srcs: self.in_edge_srcs.len(),
            out_local: self.out_local_owner.len(),
            out_remote: self.out_remote.len(),
        }
    }

    /// Owner-local positions this vertex's replica on `node` feeds
    /// (used to rebuild a replica's `out_local` during recovery).
    pub fn replica_out_local_on(&self, node: NodeId) -> Vec<u32> {
        self.out_remote
            .iter()
            .filter(|r| r.node == node)
            .map(|r| r.pos)
            .collect()
    }
}

/// Names one slot of a node's [`FullState`]. Only a store hands these out,
/// so a copy's `meta` is either `None` or a slot of its own graph's store;
/// `Option<SlotId>` is four bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotId(NonZeroU32);

impl SlotId {
    pub(crate) fn from_index(index: usize) -> SlotId {
        let raw = u32::try_from(index)
            .ok()
            .and_then(|i| i.checked_add(1))
            .and_then(NonZeroU32::new)
            .expect("a full-state store holds fewer than u32::MAX slots");
        SlotId(raw)
    }

    pub(crate) fn index(self) -> usize {
        self.0.get() as usize - 1
    }
}

/// A run of a column: where one slot's list starts and how long it is.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Span {
    start: u32,
    len: u32,
}

impl Span {
    /// # Panics
    ///
    /// Panics, rather than wrapping, if the run ends past `u32::MAX`.
    pub(crate) fn new(start: usize, len: usize) -> Span {
        let fits = start
            .checked_add(len)
            .is_some_and(|end| u32::try_from(end).is_ok());
        assert!(
            fits,
            "a full-state column cannot hold more than u32::MAX entries (run of {len} at {start})"
        );
        Span {
            start: start as u32,
            len: len as u32,
        }
    }

    pub(crate) fn range(self) -> Range<usize> {
        self.start as usize..self.start as usize + self.len as usize
    }

    pub(crate) fn len(self) -> usize {
        self.len as usize
    }

    /// This run in a column that `base` more entries now precede.
    fn rebased(self, base: usize) -> Span {
        Span::new(self.start as usize + base, self.len())
    }
}

/// One column: the lists of every slot back to back, each found through its
/// slot's [`Span`].
#[derive(Debug, Clone, Default)]
pub(crate) struct Column<T>(pub(crate) Vec<T>);

impl<T: Copy + PartialEq> Column<T> {
    pub(crate) fn get(&self, span: Span) -> &[T] {
        &self.0[span.range()]
    }

    /// Appends `items` at the tail.
    pub(crate) fn append(&mut self, items: impl IntoIterator<Item = T>) -> Span {
        let start = self.0.len();
        self.0.extend(items);
        Span::new(start, self.0.len() - start)
    }

    /// Makes `items` the list behind `span`: over the old run when they fit
    /// in it and it starts at or past `floor`, at the tail otherwise. A run
    /// that already reads `items` is left alone.
    pub(crate) fn replace(
        &mut self,
        span: &mut Span,
        items: impl ExactSizeIterator<Item = T> + Clone,
        floor: usize,
    ) {
        if items.len() <= span.len() && span.range().start >= floor {
            span.len = items.len() as u32;
            for (held, item) in self.0[span.range()].iter_mut().zip(items) {
                *held = item;
            }
        } else if !self.get(*span).iter().copied().eq(items.clone()) {
            *span = self.append(items);
        }
    }

    /// Appends `items` to the list behind `span`, which moves to the tail
    /// first unless it already ends there and starts at or past `floor`.
    pub(crate) fn extend(&mut self, span: &mut Span, items: &[T], floor: usize) {
        if items.is_empty() {
            return;
        }
        if span.range().end != self.0.len() || span.range().start < floor {
            self.0.reserve(span.len() + items.len());
            let moved = self.0.len();
            self.0.extend_from_within(span.range());
            *span = Span::new(moved, span.len());
        }
        self.0.extend_from_slice(items);
        *span = Span::new(span.range().start, span.len() + items.len());
    }

    /// Keeps the items `keep` accepts (it may rewrite them), in order, and
    /// says whether the list changed. Nothing is written up to the first
    /// dropped or rewritten item; a run starting under `floor` is then copied
    /// to the tail, and the kept items move to the front of the run. `keep`
    /// sees every item once, in order.
    fn retain_mut(
        &mut self,
        span: &mut Span,
        floor: usize,
        mut keep: impl FnMut(&mut T) -> bool,
    ) -> bool {
        let mut judge = |item: T| {
            let mut judged = item;
            keep(&mut judged).then_some(judged)
        };
        let run = span.range();
        let mut at = run.start;
        let first = loop {
            if at == run.end {
                return false;
            }
            let judged = judge(self.0[at]);
            if judged != Some(self.0[at]) {
                break judged;
            }
            at += 1;
        };
        let frozen = run.start < floor;
        if frozen {
            let moved = self.0.len();
            self.0.extend_from_within(run.clone());
            *span = Span::new(moved, run.len());
            at += moved - run.start;
        }
        let run = span.range();
        let mut to = at;
        let mut put = |column: &mut Vec<T>, judged: Option<T>| {
            if let Some(judged) = judged {
                column[to] = judged;
                to += 1;
            }
        };
        put(&mut self.0, first);
        for from in at + 1..run.end {
            let judged = judge(self.0[from]);
            put(&mut self.0, judged);
        }
        span.len = (to - run.start) as u32;
        if frozen {
            self.0.truncate(to);
        }
        true
    }

    pub(crate) fn capacity_bytes(&self) -> usize {
        self.0.capacity() * std::mem::size_of::<T>()
    }
}

/// The fixed part of one slot: the master's position and where the words of
/// the slot's location tables lie.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Head {
    pub(crate) master_pos: u32,
    /// Where the tables start in the column of table words.
    pub(crate) words: u32,
    pub(crate) replicas: u16,
    pub(crate) mirrors: u16,
}

impl Head {
    /// The head of `tables` once their words lie at `words`.
    ///
    /// # Panics
    ///
    /// Panics, rather than wrapping, if a table names more than
    /// [`MAX_TABLE_NODES`] nodes.
    pub(crate) fn of(tables: LocationsRef<'_>, words: Span) -> Head {
        debug_assert_eq!(words.len(), tables.words().len());
        let count = |nodes: Nodes<'_>| u16::try_from(nodes.len()).ok();
        let counts = count(tables.replica_nodes()).zip(count(tables.mirror_nodes()));
        let (replicas, mirrors) = counts.unwrap_or_else(|| {
            panic!("a stored location table names at most {MAX_TABLE_NODES} replicas and as many mirrors")
        });
        Head {
            master_pos: tables.master_pos(),
            words: words.start,
            replicas,
            mirrors,
        }
    }

    /// This head once its words lie at `words`.
    pub(crate) fn moved_to(self, words: Span) -> Head {
        Head {
            words: words.start,
            ..self
        }
    }

    /// The run of table words the head names: the span it was made from
    /// ([`Head::of`]), which has been checked to end inside a column.
    pub(crate) fn span(self) -> Span {
        Span {
            start: self.words,
            len: 2 * u32::from(self.replicas) + u32::from(self.mirrors),
        }
    }
}

/// Edge columns of a [`FullState`], in the order every row, journal record
/// and [`ColumnLens::per_column`] numbers them.
pub(crate) const COLUMNS: usize = 4;
pub(crate) const IN_EDGES: usize = 0;
pub(crate) const IN_SRCS: usize = 1;
pub(crate) const OUT_LOCAL: usize = 2;
pub(crate) const OUT_REMOTE: usize = 3;

/// One edge-cut copy's row in the slot table: its span in each edge column.
pub(crate) type EdgeSpans = [Span; COLUMNS];

/// How many entries each edge column of a [`FullState`] holds, or is to
/// hold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColumnLens {
    /// `(position, weight)` in-edge entries (mirrors only).
    pub in_edges: usize,
    /// In-edge source IDs (mirrors only).
    pub in_srcs: usize,
    /// Owner-local consumer positions (mirrors only).
    pub out_local: usize,
    /// Remote out-edges.
    pub out_remote: usize,
}

impl ColumnLens {
    /// Entries in the four columns together.
    pub fn total(&self) -> usize {
        self.in_edges + self.in_srcs + self.out_local + self.out_remote
    }

    /// The four lengths in the columns' order.
    pub(crate) fn per_column(&self) -> [usize; COLUMNS] {
        [self.in_edges, self.in_srcs, self.out_local, self.out_remote]
    }
}

impl std::ops::AddAssign for ColumnLens {
    fn add_assign(&mut self, more: ColumnLens) {
        self.in_edges += more.in_edges;
        self.in_srcs += more.in_srcs;
        self.out_local += more.out_local;
        self.out_remote += more.out_remote;
    }
}

/// How much a [`FullState`] holds, or is to hold: slots, table words and
/// edge-column entries, runs no slot points at any more included.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreLens {
    /// Slots.
    pub slots: usize,
    /// Words of location tables.
    pub words: usize,
    /// Entries per edge column.
    pub edges: ColumnLens,
}

impl StoreLens {
    /// Room for one more slot holding `state`.
    pub fn add(&mut self, state: FullStateRef<'_>) {
        self.slots += 1;
        self.words += state.locations.words().len();
        self.edges += state.lens();
    }
}

impl std::ops::AddAssign for StoreLens {
    fn add_assign(&mut self, more: StoreLens) {
        self.slots += more.slots;
        self.words += more.words;
        self.edges += more.edges;
    }
}

/// A full-state store: see the module documentation. A local graph keeps
/// one; a Migration mirror batch carries one, a slot per record.
#[derive(Debug, Clone, Default)]
pub struct FullState {
    pub(crate) heads: Vec<Head>,
    /// A row per slot, or none at all while no slot has had an edge list.
    pub(crate) rows: Vec<EdgeSpans>,
    pub(crate) words: Column<u32>,
    pub(crate) in_edges: Column<(u32, f32)>,
    pub(crate) in_srcs: Column<Vid>,
    pub(crate) out_local: Column<u32>,
    pub(crate) out_remote: Column<RemoteEdge>,
    /// What the open recovery episode has changed, if one is open.
    pub(crate) journal: Option<Box<StoreJournal>>,
    /// The tables [`FullState::edit_locations`] lends out, kept between
    /// edits so that an edit allocates nothing.
    lent: Locations,
}

/// Stores are equal when they hold equal full states slot for slot, wherever
/// in the columns each keeps them.
impl PartialEq for FullState {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && (0..self.len()).all(|i| self.nth(i) == other.nth(i))
    }
}

impl FullState {
    /// A store holding `states`, a slot each in that order, sized for them
    /// once.
    pub fn of<'s>(states: impl Iterator<Item = FullStateRef<'s>> + Clone) -> FullState {
        let mut lens = StoreLens::default();
        states.clone().for_each(|state| lens.add(state));
        let mut store = FullState::default();
        store.reserve_exact(lens);
        for state in states {
            store.push(state);
        }
        store
    }

    /// Slots in the store.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// Whether the store holds no slot.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Entries in each edge column, dead runs included.
    pub fn column_lens(&self) -> ColumnLens {
        ColumnLens {
            in_edges: self.in_edges.0.len(),
            in_srcs: self.in_srcs.0.len(),
            out_local: self.out_local.0.len(),
            out_remote: self.out_remote.0.len(),
        }
    }

    /// What the store holds, dead runs included.
    pub fn lens(&self) -> StoreLens {
        StoreLens {
            slots: self.heads.len(),
            words: self.words.0.len(),
            edges: self.column_lens(),
        }
    }

    /// The full state in the `i`-th slot, exactly as stored.
    ///
    /// # Panics
    ///
    /// Panics if the store holds no such slot.
    pub fn nth(&self, i: usize) -> FullStateRef<'_> {
        self.get(SlotId::from_index(i))
    }

    /// The full state in `slot`, exactly as stored.
    pub(crate) fn get(&self, slot: SlotId) -> FullStateRef<'_> {
        let row = self.row(slot);
        FullStateRef {
            locations: self.locations(slot),
            in_edges_owner: self.in_edges.get(row[IN_EDGES]),
            in_edge_srcs: InEdgeSrcs::Stored(self.in_srcs.get(row[IN_SRCS])),
            out_local_owner: self.out_local.get(row[OUT_LOCAL]),
            out_remote: self.out_remote.get(row[OUT_REMOTE]),
        }
    }

    /// The location tables in `slot`.
    pub(crate) fn locations(&self, slot: SlotId) -> LocationsRef<'_> {
        let head = self.heads[slot.index()];
        let words = self.words.get(head.span());
        LocationsRef::from_words(head.master_pos, usize::from(head.replicas), words)
    }

    /// Lends the location tables of `slot` to `edit` as an owned
    /// [`Locations`] and stores what it leaves ([`FullState::set_locations`]:
    /// tables that come back as they were are neither written nor
    /// journaled; changed ones shrink in place or move to the tail of the
    /// word column, like every other list of the store).
    pub(crate) fn edit_locations<R>(
        &mut self,
        slot: SlotId,
        edit: impl FnOnce(&mut Locations) -> R,
    ) -> R {
        let mut tables = std::mem::take(&mut self.lent);
        tables.assign(self.locations(slot));
        let out = edit(&mut tables);
        self.set_locations(slot, tables.view());
        self.lent = tables;
        out
    }

    /// Makes `tables` the location tables of `slot`; equal ones are left
    /// as they are, and words an open episode found are not overwritten.
    pub(crate) fn set_locations(&mut self, slot: SlotId, tables: LocationsRef<'_>) {
        if self.locations(slot) == tables {
            return;
        }
        self.touch_head(slot);
        let floor = self.floor().words;
        let head = &mut self.heads[slot.index()];
        let mut span = head.span();
        self.words
            .replace(&mut span, tables.words().iter().copied(), floor);
        *head = Head::of(tables, span);
    }

    /// The edge spans of `slot`: empty ones in a store without rows.
    pub(crate) fn row(&self, slot: SlotId) -> EdgeSpans {
        self.rows.get(slot.index()).copied().unwrap_or_default()
    }

    /// The edge spans of `slot`, for writing: the store has rows from here.
    fn row_mut(&mut self, slot: SlotId) -> &mut EdgeSpans {
        if self.rows.len() < self.heads.len() {
            self.rows.resize(self.heads.len(), EdgeSpans::default());
        }
        &mut self.rows[slot.index()]
    }

    /// Stores `state` in a new slot, its lists at the column tails.
    pub fn push(&mut self, state: FullStateRef<'_>) -> SlotId {
        let slot = SlotId::from_index(self.heads.len());
        let words = self.words.append(state.locations.words().iter().copied());
        self.heads.push(Head::of(state.locations, words));
        if !self.rows.is_empty() || state.lens().total() > 0 {
            *self.row_mut(slot) = [
                self.in_edges.append(state.in_edges_owner.iter().copied()),
                self.in_srcs.append(state.in_edge_srcs.iter()),
                self.out_local.append(state.out_local_owner.iter().copied()),
                self.out_remote.append(state.out_remote.iter().copied()),
            ];
        }
        slot
    }

    /// Appends every slot of `other`, in order, and returns the index the
    /// first of them got: each column grows by `other`'s whole column — one
    /// copy apiece, dead runs and all — and the slots' spans move with it.
    pub fn extend_from(&mut self, other: &FullState) -> usize {
        let (first, base) = (self.heads.len(), self.lens());
        self.words.0.extend_from_slice(&other.words.0);
        self.in_edges.0.extend_from_slice(&other.in_edges.0);
        self.in_srcs.0.extend_from_slice(&other.in_srcs.0);
        self.out_local.0.extend_from_slice(&other.out_local.0);
        self.out_remote.0.extend_from_slice(&other.out_remote.0);
        let moved = |head: &Head| head.moved_to(head.span().rebased(base.words));
        self.heads.extend(other.heads.iter().map(moved));
        if !(self.rows.is_empty() && other.rows.is_empty()) {
            self.rows.resize(first, EdgeSpans::default());
            let base = base.edges.per_column();
            let rows = (0..other.len()).map(|i| other.row(SlotId::from_index(i)));
            let moved = |row: EdgeSpans| std::array::from_fn(|c| row[c].rebased(base[c]));
            self.rows.extend(rows.map(moved));
        }
        first
    }

    /// Replaces what `slot` holds by `state`; lists equal to what is stored
    /// are not written, and runs an open episode found are not overwritten.
    pub(crate) fn set(&mut self, slot: SlotId, state: FullStateRef<'_>) {
        self.set_locations(slot, state.locations);
        if self.rows.is_empty() && state.lens().total() == 0 {
            return;
        }
        let (floor, before) = (self.floor().edges, self.row(slot));
        let [mut ins, mut srcs, mut fed, mut remote] = before;
        let FullStateRef {
            in_edges_owner,
            in_edge_srcs,
            out_local_owner,
            out_remote,
            ..
        } = state;
        (self.in_edges).replace(&mut ins, in_edges_owner.iter().copied(), floor.in_edges);
        (self.in_srcs).replace(&mut srcs, in_edge_srcs.iter(), floor.in_srcs);
        (self.out_local).replace(&mut fed, out_local_owner.iter().copied(), floor.out_local);
        (self.out_remote).replace(&mut remote, out_remote.iter().copied(), floor.out_remote);
        self.write_row(slot, [ins, srcs, fed, remote], before);
    }

    /// Makes `row` the edge spans of `slot`, which were `before`, saving
    /// those of them an open episode found.
    fn write_row(&mut self, slot: SlotId, row: EdgeSpans, before: EdgeSpans) {
        if row != before {
            *self.row_mut(slot) = row;
            self.note_spans(slot, before);
        }
    }

    /// Empties `slot`'s `(position, weight)`, source and consumer lists:
    /// what a mirror's slot must lose when the copy becomes a master, whose
    /// own edge lists say all three from then on. The empty runs are placed
    /// at the column tails (a span written in an episode starts past its
    /// floor).
    pub(crate) fn clear_owner_lists(&mut self, slot: SlotId) {
        let before = self.row(slot);
        let mut row = before;
        row[IN_EDGES] = Span::new(self.in_edges.0.len(), 0);
        row[IN_SRCS] = Span::new(self.in_srcs.0.len(), 0);
        row[OUT_LOCAL] = Span::new(self.out_local.0.len(), 0);
        self.write_row(slot, row, before);
    }

    /// Keeps the remote out-edges of `slot` that `keep` accepts (it may
    /// rewrite them), in order — at the tail if an open episode found the
    /// run — and says whether the list changed.
    pub(crate) fn retain_out_remote(
        &mut self,
        slot: SlotId,
        keep: impl FnMut(&mut RemoteEdge) -> bool,
    ) -> bool {
        let (floor, before) = (self.floor().edges.out_remote, self.row(slot));
        let mut row = before;
        let changed = (self.out_remote).retain_mut(&mut row[OUT_REMOTE], floor, keep);
        self.write_row(slot, row, before);
        changed
    }

    /// Appends `edges` to the remote out-edges of `slot`, at the tail if an
    /// open episode found the run.
    pub(crate) fn extend_out_remote(&mut self, slot: SlotId, edges: &[RemoteEdge]) {
        let (floor, before) = (self.floor().edges.out_remote, self.row(slot));
        let mut row = before;
        self.out_remote.extend(&mut row[OUT_REMOTE], edges, floor);
        self.write_row(slot, row, before);
    }

    /// # Errors
    ///
    /// Names the first slot with a run reaching past its column.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.rows.is_empty() || self.rows.len() == self.heads.len()) {
            return Err("the slot table's rows and heads differ in number".into());
        }
        let lens = self.column_lens().per_column();
        let inside = |i: usize| {
            let row = self.row(SlotId::from_index(i));
            self.heads[i].span().range().end <= self.words.0.len()
                && row.iter().zip(lens).all(|(s, len)| s.range().end <= len)
        };
        match (0..self.len()).find(|&i| !inside(i)) {
            Some(i) => Err(format!("a run of slot {i} reaches past its column")),
            None => Ok(()),
        }
    }

    /// Makes room for `more`, one allocation per column. Rows are reserved
    /// with the first edge entry.
    pub fn reserve_exact(&mut self, more: StoreLens) {
        self.heads.reserve_exact(more.slots);
        if !self.rows.is_empty() || more.edges.total() > 0 {
            let backfill = self.heads.len() - self.rows.len();
            self.rows.reserve_exact(backfill + more.slots);
        }
        self.words.0.reserve_exact(more.words);
        self.in_edges.0.reserve_exact(more.edges.in_edges);
        self.in_srcs.0.reserve_exact(more.edges.in_srcs);
        self.out_local.0.reserve_exact(more.edges.out_local);
        self.out_remote.0.reserve_exact(more.edges.out_remote);
    }

    /// Cuts the store back to `lens` and its first `rows` rows (undoing an
    /// episode's appends).
    pub(crate) fn truncate(&mut self, lens: StoreLens, rows: usize) {
        self.heads.truncate(lens.slots);
        self.rows.truncate(rows);
        self.words.0.truncate(lens.words);
        self.in_edges.0.truncate(lens.edges.in_edges);
        self.in_srcs.0.truncate(lens.edges.in_srcs);
        self.out_local.0.truncate(lens.edges.out_local);
        self.out_remote.0.truncate(lens.edges.out_remote);
    }
}

impl MemSize for FullState {
    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<FullState>()
            + self.heads.capacity() * std::mem::size_of::<Head>()
            + self.rows.capacity() * std::mem::size_of::<EdgeSpans>()
            + self.words.capacity_bytes()
            + self.in_edges.capacity_bytes()
            + self.in_srcs.capacity_bytes()
            + self.out_local.capacity_bytes()
            + self.out_remote.capacity_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the slot table costs per copy: the pins `mem_bytes` rests on.
    #[test]
    fn a_slot_is_a_twelve_byte_head_and_a_row_of_four_spans() {
        assert!(std::mem::size_of::<Head>() <= 12);
        assert!(std::mem::size_of::<EdgeSpans>() <= 32);
        assert_eq!(std::mem::size_of::<Option<SlotId>>(), 4);
    }

    /// What a remote out-edge costs, in a master's slot and in each of its
    /// mirrors': the other end's node and position and nothing else.
    #[test]
    fn a_remote_edge_is_eight_bytes() {
        assert_eq!(std::mem::size_of::<RemoteEdge>(), 8);
    }

    fn tables(tag: u32, replicas: u32) -> Locations {
        let nodes: Vec<NodeId> = (0..replicas).map(NodeId::new).collect();
        let positions: Vec<u32> = (0..replicas).map(|i| tag + i).collect();
        Locations::new(tag, &nodes, &positions, &nodes[..nodes.len().min(1)])
    }

    /// A store given tables only keeps no row; the first edge list gives
    /// every slot one, and the tables-only slots read as before.
    #[test]
    fn rows_exist_from_the_first_edge_list() {
        let (a, b) = (tables(1, 2), tables(2, 3));
        let states = [a.view(), b.view()].map(FullStateRef::tables);
        let mut store = FullState::of(states.into_iter());
        assert!(store.rows.is_empty() && store.validate().is_ok());
        assert_eq!((store.nth(1), store.lens().words), (states[1], 5 + 7));
        let mut whole = FullState::default();
        whole.extend_from(&store);
        assert!(whole == store && whole.rows.is_empty());

        let edged = MasterMeta {
            locations: a.clone(),
            in_edge_srcs: vec![Vid::new(7)],
            ..MasterMeta::default()
        };
        store.set(SlotId::from_index(1), edged.view());
        assert_eq!((store.rows.len(), store.nth(0)), (2, states[0]));
        whole.extend_from(&store);
        assert_eq!((whole.len(), whole.rows.len()), (4, 4));
        assert_eq!((whole.nth(1), whole.nth(3)), (states[1], edged.view()));
        assert!(whole.validate().is_ok());
    }

    /// Tables lent out and returned unchanged write nothing; changed ones
    /// shrink where they are and grow at the tail.
    #[test]
    fn lent_tables_come_back_in_place_or_at_the_tail() {
        let states = [tables(1, 3), tables(2, 1)];
        let mut store = FullState::of(states.iter().map(|t| FullStateRef::tables(t.view())));
        let (first, loaded) = (SlotId::from_index(0), store.lens().words);
        store.edit_locations(first, |t| t.purge_node(NodeId::new(9)));
        store.edit_locations(first, |t| t.purge_node(NodeId::new(0)));
        assert_eq!(store.lens().words, loaded, "shrinks in place");
        let mut shrunk = tables(1, 3);
        shrunk.purge_node(NodeId::new(0));
        assert_eq!(store.locations(first), shrunk.view());
        store.edit_locations(first, |t| t.add_mirror(NodeId::new(5)));
        assert_eq!(store.lens().words, loaded + 5, "grows at the tail");
        assert_eq!(store.nth(1).locations, states[1].view());
        assert!(store.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "names at most 65535 replicas")]
    fn a_table_past_u16_max_is_refused_not_wrapped() {
        let many = vec![NodeId::new(0); MAX_TABLE_NODES + 1];
        let tables = Locations::new(0, &[], &[], &many);
        FullState::default().push(FullStateRef::tables(tables.view()));
    }
}
