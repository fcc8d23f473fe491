//! Full state (§4.2): the owned form that travels in messages and the
//! per-node columnar store a local graph of either engine keeps it in.
//!
//! A node keeps the full state of all its masters and mirrors in one
//! [`FullState`]: a slot per copy over columns shared by every slot. A slot
//! is a 12-byte *head* — the master's position, where the slot's location
//! tables start in the column of table words, and how many replicas and
//! mirrors they name — and, in an edge-cut store, a *row*: one 8-byte span.
//! A vertex-cut copy's full state has no edges (§4.3), so a vertex-cut store
//! has heads and table words and nothing else: rows exist from the first
//! slot given an edge list. The lists of one slot are runs of the store's
//! columns, so a hundred thousand mirrors cost a handful of allocations to
//! build and to drop at any cluster size and tolerance level, and
//! snapshotting or exporting walks dense memory.
//!
//! Every slot's row covers a *block* of the byte column: three edge lists
//! — the in-edges by source, `out_local_owner` and `out_remote` —
//! as runs back to back ([`crate::runs`]), exactly the bytes a message
//! carries for a record that carries all three, an empty list its count, 0.
//! There is one form, so the store reads, writes and checks a slot without
//! asking whose copy it is. A mirror's block holds all three lists. A
//! master's first two runs are empty — its owner-local lists are its own
//! edge lists —: its third run is its remote out-edges, which every export
//! copies as a slice. A mirror promoted to master keeps its block as it was
//! (the promotion writes no byte) until Migration has read the mirror's
//! in-edges and consumers off it to rewire the master and writes the block
//! anew as a master's; no other block is rewritten because a crash moved a
//! consumer. Only recovery reads a block: it decodes a run as it reads it,
//! and finds the second and third by the counts. An in-edge names its
//! source, and a remote out-edge its consumer, once, by vertex, the form
//! every reader resolves it from: Migration wires a promoted master's
//! in-edges on a node where the old owner's positions mean nothing, a
//! consumer's master may move while the entry naming it stays, and a
//! rebuild places every copy of the node before it wires a master's
//! in-edges and a copy's consumers through its own index. A remote
//! out-edge whose consumer is mastered beside the block's master is one
//! its master's own consumers serve: every reader skips it ([`RemoteEdge`]).
//! How an in-edge run weighs its edges is
//! the store's [`Weights`]: a graph all of whose edges weigh the same
//! writes that weight nowhere.
//!
//! A block is never written over: writing any of a slot's lists writes its
//! whole block anew at the byte column's tail and repoints the span (the
//! old block goes dead); a block that reads the same is dropped again.
//! Table words follow the hot columns' rules: they *shrink in place* or are
//! *appended at the tail*. Recovery rewrites a small part of a partition
//! once per failure, so dead blocks stay a small part of a column, and a
//! graph rebuilt from a snapshot — a checkpoint reload — has none.
//!
//! Inside a recovery *episode* (see [`crate::episode`]) the entries a column
//! held when the episode began are frozen: every writer below takes that
//! length as its floor, leaves what starts under it untouched, and writes
//! the new list at the tail instead. Undoing the episode is then a
//! truncation plus the saved heads and spans; outside an episode the floor
//! is 0 and table words are overwritten in place. The writers keep one
//! more promise the journal relies on: **a span they write inside an
//! episode starts at or past the floor** — so a span that starts under it is
//! the span the episode found, and needs saving exactly when it changes. The
//! store journals itself: a writer that changes nothing saves nothing.
//!
//! A store also travels: Migration and Rebirth ship the full state of many
//! copies to one node as one store of blocks filled by [`FullState::push`],
//! and the receiver takes it in whole ([`FullState::extend_from`]) or record
//! by record.

use std::num::NonZeroU32;
use std::ops::Range;

use imitator_graph::Vid;
use imitator_metrics::MemSize;
use imitator_storage::codec::Sink;

use crate::episode::StoreJournal;
use crate::locations::{Locations, LocationsRef, Nodes, MAX_TABLE_NODES};
use crate::runs::{append_list, split_block, Entry, InEdge, Run, Weights};

/// An out-edge of a master whose consumer is mastered on another node,
/// named by the consumer's vertex ID.
///
/// Which node masters the consumer is the cluster's to say (the ownership
/// table and Migration's overlay of it), and where the consumer sits there
/// that node's index: an entry stays true however often the consumer's
/// master moves, so no recovery rewrites it because a consumer moved. An
/// entry whose consumer is (or comes to be) mastered on the node that
/// masters the block's vertex is served by that master's own consumers, so
/// every reader skips it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteEdge {
    /// The consumer.
    pub consumer: Vid,
}

/// Which vertex each copy of a local graph is a copy of, by position: what a
/// master's in-edges — `(local source position, weight)` — are read through
/// to name their sources when its full state leaves the graph.
pub trait CopyVids {
    /// The vertex the copy at `pos` is a copy of.
    ///
    /// # Panics
    ///
    /// Panics if the graph holds no copy there.
    fn vid_at(&self, pos: u32) -> Vid;
}

/// One of two iterators, as one.
#[derive(Clone)]
enum Either<A, B> {
    Left(A),
    Right(B),
}

impl<T, A: Iterator<Item = T>, B: Iterator<Item = T>> Iterator for Either<A, B> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match self {
            Either::Left(a) => a.next(),
            Either::Right(b) => b.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Either::Left(a) => a.size_hint(),
            Either::Right(b) => b.size_hint(),
        }
    }
}

impl<T, A: ExactSizeIterator<Item = T>, B: ExactSizeIterator<Item = T>> ExactSizeIterator
    for Either<A, B>
{
}

/// A full state's in-edges — each its weight and its source vertex —
/// however they are held. Whoever rebuilds the master's edges from them
/// finds each source's position on its own node: Migration on a
/// *different* node (§5.2.1), a rebuild on the same one, once it has
/// placed every copy.
///
/// A mirror keeps them, and a message carries them, as a run. A master keeps
/// no sources: its in-edges name local copies, and each copy names its
/// vertex, so the sources are read off the graph whenever the master's full
/// state leaves it.
#[derive(Clone, Copy)]
pub enum InEdges<'a> {
    /// As a [`MasterMeta`] holds them.
    Slice(&'a [InEdge]),
    /// A master's own in-edges, whose sources are the vertices of the copies
    /// they name.
    Local {
        /// The in-edges, `(local source position, weight)`.
        edges: &'a [(u32, f32)],
        /// The graph the positions index.
        copies: &'a dyn CopyVids,
    },
    /// A run: a mirror's, or a message's.
    Run(Run<'a>),
}

impl<'a> InEdges<'a> {
    /// How many in-edges there are.
    pub fn len(self) -> usize {
        match self {
            InEdges::Slice(edges) => edges.len(),
            InEdges::Local { edges, .. } => edges.len(),
            InEdges::Run(run) => run.len(),
        }
    }

    /// Whether there are none.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// The in-edges, in the order they fold.
    pub fn iter(self) -> impl ExactSizeIterator<Item = InEdge> + Clone + 'a {
        match self {
            InEdges::Slice(edges) => Either::Left(Either::Left(edges.iter().copied())),
            InEdges::Local { edges, copies } => {
                let edge = move |&(pos, weight): &(u32, f32)| InEdge {
                    weight,
                    src: copies.vid_at(pos),
                };
                Either::Left(Either::Right(edges.iter().map(edge)))
            }
            InEdges::Run(run) => Either::Right(run.entries()),
        }
    }

    /// The sources, in in-edge order.
    pub fn srcs(self) -> impl ExactSizeIterator<Item = Vid> + Clone + 'a {
        self.iter().map(|edge| edge.src)
    }

    /// The layout that writes these in-edges: a uniform run's own without
    /// reading it, decoded ones' without naming their sources.
    pub fn weights(self) -> Weights {
        match self {
            InEdges::Slice(edges) => Weights::of(edges.iter().map(|e| e.weight)),
            InEdges::Local { edges, .. } => Weights::of(edges.iter().map(|e| e.1)),
            InEdges::Run(run) if run.is_empty() => Weights::Unset,
            InEdges::Run(run) => run.uniform().map_or_else(
                || Weights::of(self.iter().map(|e| e.weight)),
                Weights::Uniform,
            ),
        }
    }

    /// Writes the in-edges as a message does, under `uniform`: a run
    /// verbatim where it writes weights the same way ([`Run::put`]). A
    /// master's sources are looked up a chunk at a time before the chunk is
    /// encoded: the lookups — random reads of the graph's copies — do not
    /// depend on one another and overlap, where interleaved with the
    /// varints, whose places depend on each value looked up, each would wait
    /// for the last.
    pub fn put<S: Sink>(self, uniform: Option<f32>, out: &mut S) {
        let len = self.len();
        match self {
            InEdges::Run(run) => run.put::<InEdge, S>(uniform, out),
            InEdges::Local { edges, copies } => {
                let sourced = edges.chunks(64).flat_map(|chunk| {
                    let mut srcs = [Vid::default(); 64];
                    for (src, &(pos, _)) in srcs.iter_mut().zip(chunk) {
                        *src = copies.vid_at(pos);
                    }
                    let edge = |(&(_, weight), src)| InEdge { weight, src };
                    chunk.iter().zip(srcs).map(edge)
                });
                append_list(len, sourced, uniform, out);
            }
            InEdges::Slice(edges) => append_list(len, edges.iter().copied(), uniform, out),
        }
    }
}

impl Default for InEdges<'_> {
    fn default() -> Self {
        InEdges::Slice(&[])
    }
}

/// In-edges are equal when they name the same edges in the same order,
/// weights to the bit, however each side holds them.
impl PartialEq for InEdges<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for InEdges<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A full state's consumers or remote out-edges, however they are held: as
/// a slice or as a run.
#[derive(Clone, Copy)]
pub enum List<'a, T> {
    /// Decoded.
    Slice(&'a [T]),
    /// A run: a mirror's, or a message's.
    Run(Run<'a>),
}

impl<'a, T: Entry + 'a> List<'a, T> {
    /// How many entries there are.
    pub fn len(self) -> usize {
        match self {
            List::Slice(items) => items.len(),
            List::Run(run) => run.len(),
        }
    }

    /// Whether there are none.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// The entries, in order.
    pub fn iter(self) -> impl ExactSizeIterator<Item = T> + Clone + 'a {
        match self {
            List::Slice(items) => Either::Left(items.iter().copied()),
            List::Run(run) => Either::Right(run.entries()),
        }
    }

    /// The run, if the list is held as one.
    pub fn run(self) -> Option<Run<'a>> {
        match self {
            List::Slice(_) => None,
            List::Run(run) => Some(run),
        }
    }

    /// The entries, owned.
    pub fn to_vec(self) -> Vec<T> {
        self.iter().collect()
    }

    /// Writes the list as a message does: a run verbatim.
    pub fn put<S: Sink>(self, out: &mut S) {
        match self {
            List::Slice(items) => append_list(items.len(), items.iter().copied(), None, out),
            List::Run(run) => run.put::<T, S>(run.uniform(), out),
        }
    }
}

impl<'a, T> From<&'a [T]> for List<'a, T> {
    fn from(items: &'a [T]) -> Self {
        List::Slice(items)
    }
}

impl<T> Default for List<'_, T> {
    fn default() -> Self {
        List::Slice(&[])
    }
}

/// Lists are equal when they hold equal entries in the same order, however
/// each side holds them.
impl<T: Entry + PartialEq> PartialEq for List<'_, T> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<T: Entry + std::fmt::Debug> std::fmt::Debug for List<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The full state a master shares with its mirrors (§4.2), owned and
/// decoded. A local graph stores it in its [`FullState`] columns and hands
/// it out as a [`FullStateRef`].
///
/// Everything needed to rebuild the master (and any of its replicas) *at the
/// same array positions* on a replacement node, plus the replica-location
/// tables that recovery consults to find what was lost.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MasterMeta {
    /// Where the master and its copies live.
    pub locations: Locations,
    /// The master's in-edges, by source (edge-cut replicates edges into the
    /// mirror's full state, §4.3): see [`InEdges`].
    pub in_edges: Vec<InEdge>,
    /// Owner-local positions of out-neighbours mastered on the owner.
    pub out_local_owner: Vec<u32>,
    /// Out-edges whose consumer is mastered on another node: those mastered
    /// on a node give the consumers of this vertex's copy there.
    pub out_remote: Vec<RemoteEdge>,
}

impl MasterMeta {
    /// This full state, borrowed.
    pub fn view(&self) -> FullStateRef<'_> {
        FullStateRef {
            locations: self.locations.view(),
            in_edges: InEdges::Slice(&self.in_edges),
            out_local_owner: List::Slice(&self.out_local_owner),
            out_remote: List::Slice(&self.out_remote),
        }
    }
}

/// Which of an edge-cut full state's three edge lists — the in-edges by
/// source, `out_local_owner`, `out_remote` — a shipped record carries,
/// as three bits. A Migration refresh (§5.2) carries the lists its episode
/// changed and the location tables always; the receiver keeps the lists it
/// is not sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeLists(u8);

impl EdgeLists {
    /// The location tables alone.
    pub const NONE: EdgeLists = EdgeLists(0);
    /// The in-edges, by source.
    pub const IN_EDGES: EdgeLists = EdgeLists(1);
    /// `out_local_owner`.
    pub const OUT_LOCAL: EdgeLists = EdgeLists(2);
    /// `out_remote`.
    pub const OUT_REMOTE: EdgeLists = EdgeLists(4);
    /// All three.
    pub const ALL: EdgeLists = EdgeLists(7);
    /// Each of the three, in the order a block holds them.
    const EACH: [EdgeLists; 3] = [Self::IN_EDGES, Self::OUT_LOCAL, Self::OUT_REMOTE];

    /// The three bits.
    pub fn bits(self) -> u8 {
        self.0
    }

    /// The lists `bits` name, or `None` if a bit past the third is set.
    pub fn from_bits(bits: u8) -> Option<EdgeLists> {
        (bits <= Self::ALL.0).then_some(EdgeLists(bits))
    }

    /// Whether every list of `lists` is among these.
    pub fn contains(self, lists: EdgeLists) -> bool {
        self.0 & lists.0 == lists.0
    }
}

impl std::ops::BitOr for EdgeLists {
    type Output = EdgeLists;

    fn bitor(self, more: EdgeLists) -> EdgeLists {
        EdgeLists(self.0 | more.0)
    }
}

/// One copy's full state, borrowed from wherever it is held: decoded, as
/// runs, or read off a master's own edge lists.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FullStateRef<'a> {
    /// Where the master and its copies live.
    pub locations: LocationsRef<'a>,
    /// The in-edges: see [`InEdges`].
    pub in_edges: InEdges<'a>,
    /// See [`MasterMeta::out_local_owner`].
    pub out_local_owner: List<'a, u32>,
    /// See [`MasterMeta::out_remote`].
    pub out_remote: List<'a, RemoteEdge>,
}

impl<'a> FullStateRef<'a> {
    /// The owned form, every list decoded and allocated at its length.
    pub fn to_meta(&self) -> MasterMeta {
        MasterMeta {
            locations: self.locations.to_owned(),
            in_edges: self.in_edges.iter().collect(),
            out_local_owner: self.out_local_owner.to_vec(),
            out_remote: self.out_remote.to_vec(),
        }
    }

    /// This full state with the edge lists `lists` does not name emptied:
    /// what a record carrying just those holds.
    pub fn carrying(self, lists: EdgeLists) -> Self {
        let mut carried = FullStateRef::tables(self.locations);
        if lists.contains(EdgeLists::IN_EDGES) {
            carried.in_edges = self.in_edges;
        }
        if lists.contains(EdgeLists::OUT_LOCAL) {
            carried.out_local_owner = self.out_local_owner;
        }
        if lists.contains(EdgeLists::OUT_REMOTE) {
            carried.out_remote = self.out_remote;
        }
        carried
    }

    /// Tables alone: the whole of a vertex-cut copy's full state.
    pub fn tables(locations: LocationsRef<'a>) -> Self {
        FullStateRef {
            locations,
            in_edges: InEdges::default(),
            out_local_owner: List::default(),
            out_remote: List::default(),
        }
    }

    /// How many entries each of the edge lists holds.
    pub fn lens(&self) -> ColumnLens {
        ColumnLens {
            in_edges: self.in_edges.len(),
            out_local: self.out_local_owner.len(),
            out_remote: self.out_remote.len(),
        }
    }

    /// Writes the run of `list`, one of the three, as a block holds it.
    fn put_run<S: Sink>(self, list: EdgeLists, uniform: Option<f32>, out: &mut S) {
        match list {
            EdgeLists::IN_EDGES => self.in_edges.put(uniform, out),
            EdgeLists::OUT_LOCAL => self.out_local_owner.put(out),
            _ => self.out_remote.put(out),
        }
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

/// How a local graph of either engine ships full state to other nodes and
/// takes it in — Migration's mirror batches (§5.2) and Rebirth's, a store
/// per destination, each slot carrying its tables and, edge-cut, the edge
/// lists asked for.
pub trait FullStateBatches {
    /// The full state of the copies at `records` — a position and the edge
    /// lists to carry — in that order, as it ships to another node: a store
    /// sized once, a slot each, and the lists each slot carries (none for a
    /// vertex-cut copy, whose full state is its tables).
    ///
    /// # Panics
    ///
    /// Panics if one of the copies carries no full state.
    fn export_full_states(&self, records: &[(u32, EdgeLists)]) -> (FullState, Vec<EdgeLists>);

    /// Adopts batches of full state: for each `(positions, batch, lists)`,
    /// the `i`-th slot of `batch` becomes the full state of the copy at
    /// `positions[i]` — its tables and the edge lists `lists[i]` names, or
    /// all of them when `lists` is empty. A list a slot does not carry is
    /// kept as the copy holds it, neither written nor journaled.
    ///
    /// # Panics
    ///
    /// Panics if a batch, its positions and its lists differ in length, or
    /// if a copy without full state is not sent all of it.
    fn adopt_full_states(&mut self, batches: &[(&[u32], &FullState, &[EdgeLists])]);

    /// The edge lists of the master at `pos` that may differ from what its
    /// mirrors held when the open recovery episode began: all of them
    /// without an open episode, none for a vertex-cut copy.
    fn changed_lists(&self, pos: u32) -> EdgeLists;
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

/// How many entries each edge list of a full state — or all those of a
/// store — holds: what a message announces ahead of a store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColumnLens {
    /// In-edges, each its weight and source (mirrors only).
    pub in_edges: usize,
    /// Owner-local consumer positions (mirrors only).
    pub out_local: usize,
    /// Remote out-edges.
    pub out_remote: usize,
}

impl ColumnLens {
    /// Entries in the three lists together.
    pub fn total(&self) -> usize {
        self.in_edges + self.out_local + self.out_remote
    }
}

impl std::ops::AddAssign for ColumnLens {
    fn add_assign(&mut self, more: ColumnLens) {
        self.in_edges += more.in_edges;
        self.out_local += more.out_local;
        self.out_remote += more.out_remote;
    }
}

/// How much a [`FullState`] holds, or is to hold: slots, table words and
/// bytes of blocks, what no slot points at any more included.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreLens {
    /// Slots.
    pub slots: usize,
    /// Words of location tables.
    pub words: usize,
    /// Bytes of blocks.
    pub runs: usize,
}

impl StoreLens {
    /// Room for one more slot holding `state`: its tables, and the bytes of
    /// the lists it holds as runs (a missing one is its count, a byte). A
    /// list held decoded grows the byte column as it is encoded: measuring
    /// it first would encode it twice.
    pub fn add(&mut self, state: FullStateRef<'_>) {
        let in_edges = match state.in_edges {
            InEdges::Run(run) => Some(run),
            _ => None,
        };
        let runs = [
            in_edges,
            state.out_local_owner.run(),
            state.out_remote.run(),
        ];
        self.slots += 1;
        self.words += state.locations.words().len();
        self.runs += runs
            .iter()
            .flatten()
            .map(|run| run.bytes().len().max(1))
            .sum::<usize>();
    }
}

impl std::ops::AddAssign for StoreLens {
    fn add_assign(&mut self, more: StoreLens) {
        self.slots += more.slots;
        self.words += more.words;
        self.runs += more.runs;
    }
}

/// Writes the block of `state` to `out`: its three lists as a message
/// writes them for a record that carries all three — each run held in the
/// layout `uniform` copied, any other list encoded.
pub(crate) fn put_block<S: Sink>(state: FullStateRef<'_>, uniform: Option<f32>, out: &mut S) {
    for list in EdgeLists::EACH {
        state.put_run(list, uniform, out);
    }
}

/// Appends the block of `state` to `out` ([`put_block`]) and returns its
/// span.
fn append_block(state: FullStateRef<'_>, uniform: Option<f32>, out: &mut Vec<u8>) -> Span {
    let start = out.len();
    put_block(state, uniform, out);
    Span::new(start, out.len() - start)
}

/// A full-state store: see the module documentation. A local graph keeps
/// one; a Migration or Rebirth batch carries one, a slot per record.
#[derive(Clone, Default)]
pub struct FullState {
    pub(crate) heads: Vec<Head>,
    /// A block per slot, or none at all while no slot has had an edge list.
    pub(crate) rows: Vec<Span>,
    pub(crate) words: Column<u32>,
    /// Every block, back to back.
    pub(crate) runs: Column<u8>,
    /// How the in-edge runs write weights.
    pub(crate) weights: Weights,
    /// What the open recovery episode has changed, if one is open.
    pub(crate) journal: Option<Box<StoreJournal>>,
    /// The tables [`FullState::edit_locations`] lends out, kept between
    /// edits so that an edit allocates nothing.
    lent: Locations,
}

/// Stores are equal when they hold equal full states slot for slot,
/// wherever in the columns and in whatever layout each keeps them.
impl PartialEq for FullState {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && (0..self.len()).all(|i| self.nth(i) == other.nth(i))
    }
}

/// A store shows the full state of its slots, decoded.
impl std::fmt::Debug for FullState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list()
            .entries((0..self.len()).map(|i| self.nth(i)))
            .finish()
    }
}

impl FullState {
    /// An empty store whose in-edge runs write weights as `weights` says.
    pub fn with_weights(weights: Weights) -> FullState {
        FullState {
            weights,
            ..FullState::default()
        }
    }

    /// A store holding `states`, a slot each in that order, in the layout
    /// that writes all their in-edges.
    pub fn of<'s>(states: impl Iterator<Item = FullStateRef<'s>> + Clone) -> FullState {
        FullState::shipping(Weights::Unset, states)
    }

    /// A store holding `states`, a block each in that order, in `weights`
    /// unless one of their in-edge lists needs a weight per edge — settled
    /// once, before a byte is written —: a run in the store's layout is
    /// copied in, any other list encoded. The slots are new, so nothing is
    /// compared or journaled; the store is sized once but for the lists it
    /// encodes.
    pub(crate) fn shipping<'s>(
        weights: Weights,
        states: impl Iterator<Item = FullStateRef<'s>> + Clone,
    ) -> FullState {
        let (mut lens, mut weights, mut listed) = (StoreLens::default(), weights, false);
        for state in states.clone() {
            lens.add(state);
            if weights != Weights::PerEdge {
                weights = weights.and(state.in_edges.weights());
            }
            listed |= state.lens().total() > 0;
        }
        let mut store = FullState::with_weights(weights);
        store.reserve_exact(lens);
        let uniform = weights.uniform();
        for state in states {
            store.push_head(state.locations);
            if listed {
                let block = append_block(state, uniform, &mut store.runs.0);
                store.rows.push(block);
            }
        }
        store
    }

    /// How the store's in-edge runs write weights.
    pub fn weights(&self) -> Weights {
        self.weights
    }

    /// Slots in the store.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// Whether the store holds no slot.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Entries in each edge list, summed over the slots: what a message
    /// announces ahead of a batch.
    pub fn column_lens(&self) -> ColumnLens {
        let mut lens = ColumnLens::default();
        (0..self.len()).for_each(|i| lens += self.nth(i).lens());
        lens
    }

    /// What the store holds, dead blocks included.
    pub fn lens(&self) -> StoreLens {
        StoreLens {
            slots: self.heads.len(),
            words: self.words.0.len(),
            runs: self.runs.0.len(),
        }
    }

    /// What `slots` point at: [`FullState::lens`] for a store without dead
    /// blocks or tables when they are all its slots.
    pub(crate) fn live_lens(&self, slots: impl Iterator<Item = SlotId>) -> StoreLens {
        let mut lens = StoreLens::default();
        for slot in slots {
            lens.slots += 1;
            lens.words += self.heads[slot.index()].span().len();
            lens.runs += self.row(slot).len();
        }
        lens
    }

    /// The full state in the `i`-th slot, exactly as stored.
    ///
    /// # Panics
    ///
    /// Panics if the store holds no such slot.
    pub fn nth(&self, i: usize) -> FullStateRef<'_> {
        self.get(SlotId::from_index(i))
    }

    /// The location tables of the `i`-th slot.
    ///
    /// # Panics
    ///
    /// Panics if the store holds no such slot.
    pub fn tables(&self, i: usize) -> LocationsRef<'_> {
        self.locations(SlotId::from_index(i))
    }

    /// The block of the `i`-th slot: its three lists as a message carries
    /// them for a record that carries all three, in the store's layout —
    /// or no bytes, in a store without rows.
    ///
    /// # Panics
    ///
    /// Panics if the store holds no such slot.
    pub fn block(&self, i: usize) -> &[u8] {
        self.runs.get(self.row(SlotId::from_index(i)))
    }

    /// Stores `tables` and `block` in a new slot, the block copied as one
    /// slice: three runs back to back — in-edges, consumers, remote
    /// out-edges —, each checked where it entered the node ([`take_run`])
    /// in the store's layout.
    ///
    /// [`take_run`]: crate::take_run
    pub fn push_block(&mut self, tables: LocationsRef<'_>, block: &[u8]) -> SlotId {
        let slot = self.push_head(tables);
        let start = self.runs.0.len();
        self.runs.0.extend_from_slice(block);
        self.set_row(slot, Span::new(start, block.len()));
        slot
    }

    /// The full state in `slot`, exactly as stored: its block's three lists
    /// as runs.
    pub(crate) fn get(&self, slot: SlotId) -> FullStateRef<'_> {
        let block = self.runs.get(self.row(slot));
        let [ins, fed, remote] = split_block(block, self.weights.uniform());
        FullStateRef {
            locations: self.locations(slot),
            in_edges: InEdges::Run(ins),
            out_local_owner: List::Run(fed),
            out_remote: List::Run(remote),
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
    /// word column).
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

    /// The block `slot` covers: an empty one in a store without rows.
    pub(crate) fn row(&self, slot: SlotId) -> Span {
        self.rows.get(slot.index()).copied().unwrap_or_default()
    }

    /// Stores `state` in a new slot, a block at the tail of the byte
    /// column: a run in the store's layout is copied in, any other list
    /// encoded. A uniform store given in-edges of another weight spreads
    /// every block to a weight per edge first.
    pub fn push(&mut self, state: FullStateRef<'_>) -> SlotId {
        self.admit(state.in_edges);
        let slot = self.push_head(state.locations);
        if !self.rows.is_empty() || state.lens().total() > 0 {
            let block = append_block(state, self.weights.uniform(), &mut self.runs.0);
            self.set_row(slot, block);
        }
        slot
    }

    /// A new slot holding `tables`, without a row.
    fn push_head(&mut self, tables: LocationsRef<'_>) -> SlotId {
        let slot = SlotId::from_index(self.heads.len());
        let words = self.words.append(tables.words().iter().copied());
        self.heads.push(Head::of(tables, words));
        slot
    }

    /// Makes `block` the row of `slot`: the store has rows from here.
    fn set_row(&mut self, slot: SlotId, block: Span) {
        self.rows.resize(self.heads.len(), Span::default());
        self.rows[slot.index()] = block;
    }

    /// Whether `other`'s blocks can be taken in as they are: the two write
    /// weights alike, or one of them has written none.
    pub(crate) fn writes_like(&self, other: &FullState) -> bool {
        let alike = self.weights.and(other.weights);
        [self.weights, other.weights]
            .iter()
            .all(|&w| w == alike || w == Weights::Unset)
    }

    /// Appends every slot of `other`, which writes weights alike
    /// ([`FullState::writes_like`]), in order, and returns the index the
    /// first of them got: each column grows by `other`'s whole column, one
    /// copy apiece, dead blocks and all, and the slots' spans move with it.
    ///
    /// # Panics
    ///
    /// Panics if the two stores write weights differently: a batch that
    /// does not is taken in record by record.
    pub fn extend_from(&mut self, other: &FullState) -> usize {
        assert!(self.writes_like(other), "stores of other weight layouts");
        let (first, base) = (self.heads.len(), self.lens());
        self.weights = self.weights.and(other.weights);
        self.words.0.extend_from_slice(&other.words.0);
        self.runs.0.extend_from_slice(&other.runs.0);
        let moved = |head: &Head| head.moved_to(head.span().rebased(base.words));
        self.heads.extend(other.heads.iter().map(moved));
        if !(self.rows.is_empty() && other.rows.is_empty()) {
            self.rows.resize(first, Span::default());
            let rows = (0..other.len()).map(|i| other.row(SlotId::from_index(i)));
            self.rows.extend(rows.map(|row| row.rebased(base.runs)));
        }
        first
    }

    /// Replaces what `slot` holds by `state`: its tables and the edge lists
    /// `lists` names — the others stay as they are, neither written nor
    /// journaled. Lists equal to what is stored are not written, and what
    /// an open episode found is not overwritten. A uniform store given
    /// in-edges of another weight spreads every block to a weight per edge
    /// first.
    pub(crate) fn set(&mut self, slot: SlotId, state: FullStateRef<'_>, lists: EdgeLists) {
        self.set_locations(slot, state.locations);
        if lists == EdgeLists::NONE || (self.rows.is_empty() && state.lens().total() == 0) {
            return;
        }
        if lists.contains(EdgeLists::IN_EDGES) {
            self.admit(state.in_edges);
        }
        self.write_block(slot, state, lists);
    }

    /// Writes the block of `slot` anew at the tail of the byte column: the
    /// lists of `state` that `lists` names, the others copied from the block
    /// it had. A block that reads the same as the one it had is dropped
    /// again, and the slot keeps its own: a block is never written over.
    fn write_block(&mut self, slot: SlotId, state: FullStateRef<'_>, lists: EdgeLists) {
        let (held, uniform) = (self.row(slot), self.weights.uniform());
        let tail = self.runs.0.len();
        if lists == EdgeLists::ALL {
            put_block(state, uniform, &mut self.runs.0);
        } else {
            let lens = split_block(self.runs.get(held), uniform).map(|run| run.bytes().len());
            let mut at = held.range().start;
            let out = &mut self.runs.0;
            for (list, len) in EdgeLists::EACH.into_iter().zip(lens) {
                match (lists.contains(list), len) {
                    (true, _) => state.put_run(list, uniform, out),
                    (false, 0) => out.push(0),
                    (false, len) => out.extend_from_within(at..at + len),
                }
                at += len;
            }
        }
        self.keep_block(slot, held, tail);
    }

    /// Makes the block written at the byte column's tail since `tail` the
    /// block of `slot`, which was `held`, and says whether it did: one that
    /// reads the same as `held` is dropped again.
    fn keep_block(&mut self, slot: SlotId, held: Span, tail: usize) -> bool {
        if self.runs.0[held.range()] == self.runs.0[tail..] {
            self.runs.0.truncate(tail);
            return false;
        }
        let block = Span::new(tail, self.runs.0.len() - tail);
        self.write_row(slot, block, held);
        true
    }

    /// Makes `slot`'s block a master's holding `edges` — two empty runs,
    /// then its remote out-edges — and says whether the block changed: it
    /// is written anew at the tail only if it did.
    pub(crate) fn set_out_remote(&mut self, slot: SlotId, edges: &[RemoteEdge]) -> bool {
        let (held, tail) = (self.row(slot), self.runs.0.len());
        self.runs.0.extend_from_slice(&[0, 0]);
        append_list(edges.len(), edges.iter().copied(), None, &mut self.runs.0);
        self.keep_block(slot, held, tail)
    }

    /// Settles the layout for writing `in_edges` as a run: an unset one
    /// becomes theirs, and a uniform one they do not fit is spread to a
    /// weight per edge ([`FullState::spread`]).
    fn admit(&mut self, in_edges: InEdges<'_>) {
        if in_edges.is_empty() || self.weights == Weights::PerEdge {
            return;
        }
        let both = self.weights.and(in_edges.weights());
        if self.weights == Weights::Unset {
            self.weights = both;
        } else if both != self.weights {
            self.spread();
        }
    }

    /// Makes a weight per edge the layout and rewrites every block that has
    /// in-edges with a weight each, at the tail.
    fn spread(&mut self) {
        let uniform = self.weights.uniform();
        self.weights = Weights::PerEdge;
        for slot in (0..self.rows.len()).map(SlotId::from_index) {
            let before = self.row(slot);
            let [ins, ..] = split_block(self.runs.get(before), uniform);
            if ins.is_empty() {
                continue;
            }
            let (held, edges) = (ins.bytes().len(), ins.entries().collect::<Vec<InEdge>>());
            let tail = self.runs.0.len();
            append_list(edges.len(), edges.into_iter(), None, &mut self.runs.0);
            let block = before.range();
            self.runs
                .0
                .extend_from_within(block.start + held..block.end);
            let span = Span::new(tail, self.runs.0.len() - tail);
            self.write_row(slot, span, before);
        }
    }

    /// Makes `block` the row of `slot`, which was `before`, saving that if
    /// an open episode found it.
    fn write_row(&mut self, slot: SlotId, block: Span, before: Span) {
        if block != before {
            self.set_row(slot, block);
            self.note_row(slot, before);
        }
    }

    /// Checks the slot table against the columns.
    ///
    /// # Errors
    ///
    /// Names the first slot whose tables or block reach past their column.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.rows.is_empty() || self.rows.len() == self.heads.len()) {
            return Err("the slot table's rows and heads differ in number".into());
        }
        let words = self.words.0.len();
        if let Some(i) = (self.heads.iter()).position(|head| head.span().range().end > words) {
            return Err(format!("the tables of slot {i} reach past their column"));
        }
        let runs = self.runs.0.len();
        match (self.rows.iter()).position(|row| row.range().end > runs) {
            Some(i) => Err(format!("the block of slot {i} reaches past its column")),
            None => Ok(()),
        }
    }

    /// Makes room for `more`, one allocation per column. Rows are reserved
    /// with the first edge list.
    pub fn reserve_exact(&mut self, more: StoreLens) {
        self.heads.reserve_exact(more.slots);
        if !self.rows.is_empty() || more.runs > 0 {
            let backfill = self.heads.len() - self.rows.len();
            self.rows.reserve_exact(backfill + more.slots);
        }
        self.words.0.reserve_exact(more.words);
        self.runs.0.reserve_exact(more.runs);
    }

    /// Cuts the store back to `lens` and its first `rows` rows (undoing an
    /// episode's appends).
    pub(crate) fn truncate(&mut self, lens: StoreLens, rows: usize) {
        self.heads.truncate(lens.slots);
        self.rows.truncate(rows);
        self.words.0.truncate(lens.words);
        self.runs.0.truncate(lens.runs);
    }
}

impl MemSize for FullState {
    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<FullState>()
            + self.heads.capacity() * std::mem::size_of::<Head>()
            + self.rows.capacity() * std::mem::size_of::<Span>()
            + self.words.capacity_bytes()
            + self.runs.capacity_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imitator_cluster::NodeId;

    /// What the slot table costs per copy: the pins `mem_bytes` rests on.
    #[test]
    fn a_slot_is_a_twelve_byte_head_and_an_eight_byte_row() {
        assert_eq!(std::mem::size_of::<Head>(), 12);
        assert_eq!(std::mem::size_of::<Span>(), 8);
        assert_eq!(std::mem::size_of::<Option<SlotId>>(), 4);
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
            in_edges: vec![InEdge {
                weight: 0.5,
                src: Vid::new(7),
            }],
            ..MasterMeta::default()
        };
        store.set(SlotId::from_index(1), edged.view(), EdgeLists::ALL);
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

    fn weighed(tag: u32, weights: &[f32]) -> MasterMeta {
        let n = weights.len() as u32;
        MasterMeta {
            locations: tables(tag, 2),
            in_edges: (0..n)
                .map(|i| InEdge {
                    weight: weights[i as usize],
                    src: Vid::new(tag * 100 + i),
                })
                .collect(),
            out_local_owner: (0..n).map(|i| tag * 10 + i).collect(),
            out_remote: (0..n)
                .map(|i| RemoteEdge {
                    consumer: Vid::new(70_000 + i),
                })
                .collect(),
        }
    }

    /// A slot's block is the bytes a message writes for the three lists —
    /// in the uniform layout and with a weight per edge —, an empty list
    /// its count, 0; a list written alone writes the whole block anew.
    #[test]
    fn a_slot_stores_the_block_a_message_writes() {
        for (weights, uniform) in [(&[0.5f32; 3][..], Some(0.5)), (&[0.5, 2.0, 0.5], None)] {
            let meta = weighed(4, weights);
            let mut store = FullState::default();
            let slot = store.push(meta.view());
            assert_eq!(store.weights().uniform(), uniform);
            let view = meta.view();
            let mut wire = Vec::new();
            view.in_edges.put(uniform, &mut wire);
            view.out_local_owner.put(&mut wire);
            view.out_remote.put(&mut wire);
            assert_eq!(store.block(0), &wire[..]);
            assert_eq!(store.nth(0), view);
            let empty = store.push(weighed(5, &[]).view());
            assert_eq!(store.block(empty.index()), [0, 0, 0]);

            let (runs, fed) = (store.lens().runs, [7u32, 8]);
            let state = FullStateRef {
                out_local_owner: List::Slice(&fed),
                ..view
            };
            store.set(slot, state, EdgeLists::OUT_LOCAL);
            let block = store.row(slot);
            assert_eq!(block.range(), runs..store.lens().runs, "at the tail");
            assert_eq!(store.nth(0), state);
            store.set(slot, state, EdgeLists::ALL);
            assert_eq!(store.row(slot), block, "the same block is not written");
            assert!(store.validate().is_ok());
        }
    }

    /// A uniform store given an in-edge of another weight rewrites its
    /// in-edge runs with a weight each; an unset one takes the layout of
    /// the first in-edges it is given.
    #[test]
    fn a_store_spreads_its_weights_when_a_list_differs() {
        let mut store = FullState::default();
        store.push(weighed(1, &[]).view());
        assert_eq!(store.weights(), Weights::Unset);
        let first = weighed(2, &[1.0, 1.0]);
        store.push(first.view());
        assert_eq!(store.weights(), Weights::Uniform(1.0));
        let other = weighed(3, &[1.0, 3.0]);
        store.push(other.view());
        assert_eq!(store.weights(), Weights::PerEdge);
        assert_eq!((store.nth(1), store.nth(2)), (first.view(), other.view()));
        assert!(store.validate().is_ok());
    }
}
