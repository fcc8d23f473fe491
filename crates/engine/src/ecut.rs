//! Edge-cut local graphs (the Cyclops runtime representation).

use imitator_cluster::NodeId;
use imitator_graph::{Edge, Graph, PosIndex, Vid};
use imitator_metrics::MemSize;
use imitator_partition::EdgeCut;
use imitator_storage::codec::Sink;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

use crate::episode::EcJournal;
use crate::ftplan::FtPlan;
use crate::full_state::{
    put_block, Column, ColumnLens, CopyVids, EdgeLists, FullState, FullStateBatches, FullStateRef,
    Head, InEdges, List, RemoteEdge, SlotId, Span, StoreLens,
};
use crate::load::{collect_exact, copy_kind, per_node, Layout};
use crate::locations::{Locations, LocationsRef};
use crate::program::{Degrees, VertexProgram};
use crate::runs::{Entry, Run, Weights};

/// The role of a local vertex copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CopyKind {
    /// The authoritative copy; co-located with all of the vertex's edges.
    Master,
    /// A computation replica providing local read access to the value.
    Replica,
    /// A full-state replica (§4.2) able to recover its master — carries the
    /// master's full state. Extra FT replicas (§4.1) are always mirrors.
    Mirror,
}

impl CopyKind {
    /// The role as the two bits snapshots and journals store.
    pub fn bits(self) -> u8 {
        match self {
            CopyKind::Master => 0,
            CopyKind::Replica => 1,
            CopyKind::Mirror => 2,
        }
    }

    /// The role [`CopyKind::bits`] encodes as `bits`, if any.
    pub fn from_bits(bits: u8) -> Option<CopyKind> {
        match bits {
            0 => Some(CopyKind::Master),
            1 => Some(CopyKind::Replica),
            2 => Some(CopyKind::Mirror),
            _ => None,
        }
    }
}

/// One local vertex copy in an edge-cut partition.
///
/// A copy's edge lists — its in-edges (masters only) and the positions of
/// the consumers it feeds — are runs of its graph's two hot columns, read
/// with [`EcLocalGraph::in_edges`] and [`EcLocalGraph::out_local`]: a copy
/// owns no heap block of its own.
#[derive(Debug, Clone)]
pub struct EcVertex<V> {
    /// Global vertex ID.
    pub vid: Vid,
    /// Role of this copy.
    pub kind: CopyKind,
    /// The node mastering this vertex.
    pub master_node: NodeId,
    /// Current committed value.
    pub value: V,
    /// Whether the vertex computes this iteration (meaningful on masters).
    pub active: bool,
    /// Activation staged for the next iteration (set during commit).
    pub next_active: bool,
    /// The last scatter bit synchronised from the master (mirrors record it
    /// for activation replay at recovery, §5.1.3).
    pub last_activate: bool,
    /// Where the graph's hot columns keep this copy's in-edges and
    /// consumers. Only the graph's own mutators write these: a run is
    /// meaningful in the columns of the graph holding the copy and nowhere
    /// else.
    pub(crate) in_edges: Span,
    pub(crate) out_local: Span,
    /// Where the graph's store keeps this copy's full state (masters and
    /// mirrors): read it with [`EcLocalGraph::full_state`], write it with
    /// [`EcLocalGraph::set_full_state`].
    pub meta: Option<SlotId>,
}

impl<V> EcVertex<V> {
    /// A copy with no edges, no full state and every activation flag clear:
    /// what [`EcLocalGraph::push_copy`] and [`EcLocalGraph::insert_at`]
    /// take. Its lists are set once it has a position.
    pub fn new(vid: Vid, kind: CopyKind, master_node: NodeId, value: V) -> Self {
        EcVertex {
            vid,
            kind,
            master_node,
            value,
            active: false,
            next_active: false,
            last_activate: false,
            in_edges: Span::default(),
            out_local: Span::default(),
            meta: None,
        }
    }

    /// This copy without edge lists: a run means something in the columns
    /// of the graph it was written for and nowhere else.
    fn unlisted(self) -> Self {
        EcVertex {
            in_edges: Span::default(),
            out_local: Span::default(),
            ..self
        }
    }

    /// Whether this copy is the authoritative master.
    pub fn is_master(&self) -> bool {
        self.kind == CopyKind::Master
    }

    /// Whether this copy carries full state (master or mirror).
    pub fn has_full_state(&self) -> bool {
        self.meta.is_some()
    }
}

/// Copies are equal when their own fields are and both or neither carry
/// full state. *Where* the graph keeps a copy's lists and full state is the
/// graph's business: two equal graphs may lay their columns out and number
/// their slots differently, and [`EcLocalGraph`]'s equality compares the
/// lists and the full state themselves.
impl<V: PartialEq> PartialEq for EcVertex<V> {
    fn eq(&self, other: &Self) -> bool {
        self.eq_by(other, V::eq)
    }
}

impl<V> EcVertex<V> {
    /// `==`, the two values compared by `same`.
    fn eq_by(&self, other: &Self, same: impl Fn(&V, &V) -> bool) -> bool {
        self.vid == other.vid
            && self.kind == other.kind
            && self.master_node == other.master_node
            && same(&self.value, &other.value)
            && self.active == other.active
            && self.next_active == other.next_active
            && self.last_activate == other.last_activate
            && self.meta.is_some() == other.meta.is_some()
    }
}

impl<V> CopyVids for Vec<EcVertex<V>> {
    fn vid_at(&self, pos: u32) -> Vid {
        self[pos as usize].vid
    }
}

impl<V> CopyVids for &[EcVertex<V>] {
    fn vid_at(&self, pos: u32) -> Vid {
        self[pos as usize].vid
    }
}

/// One node's local partition under edge-cut.
///
/// Vertices live in a position-stable array: recovery reproduces a crashed
/// node's array layout exactly, so edges (stored as positions) stay valid —
/// the paper's lock-free, parallel reconstruction (§5.1.2).
///
/// What a superstep reads is the vertex array — values, activity — and two
/// *hot* columns beside it: every copy's in-edges `(local source position,
/// weight)` back to back in one, every copy's consumer positions in the
/// other, each copy's run found through the two spans it carries. Full
/// state lives in a second, *cold* columnar store per node (see
/// [`crate::full_state`]'s module documentation) — separate allocations, so
/// that a superstep never strides over the mirrors' state. A mirror's edge
/// lists are kept there as the byte runs they ship as; of a *master's* full
/// state only what its own edge lists do not already say: the replica
/// locations and the remote out-edges, the third run of a block whose first
/// two are empty. Its owner-local in-edges and consumers *are* its runs of
/// the hot columns, the sources of its in-edges are the vertices of the
/// copies those name, and [`EcLocalGraph::full_state`] hands all three out
/// as such.
///
/// The hot columns follow the cold columns' rules: a list shrinks in place
/// or is rewritten at the column's tail, the columns are never compacted,
/// and inside a recovery episode the entries a column held when it began
/// are frozen.
///
/// The vertex fields are public and a superstep writes them directly. A
/// recovery attempt that may have to be undone writes values and flags so
/// once it has imaged them ([`crate::Episode::touch_values`]), the rest
/// through the mutators (`set_kind`, `set_master_node`, `set_active`,
/// `set_in_edges_by_source`, `set_out_local_by_consumer`,
/// `extend_out_local`, `push_copy`, and everything that touches full
/// state): while an episode is open they
/// journal what they change, and cost a branch when none is.
#[derive(Debug, Clone)]
pub struct EcLocalGraph<V> {
    /// The hosting node.
    pub node: NodeId,
    /// All local copies, indexed by position.
    pub verts: Vec<EcVertex<V>>,
    /// Global-ID → position index.
    pub index: PosIndex,
    /// Sorted positions of currently active masters (the sparse activation
    /// frontier). Canonical invariant: always equal to the ascending list of
    /// positions `p` with `verts[p].is_master() && verts[p].active`, so
    /// compute and commit cost O(frontier + touched) instead of O(|verts|).
    /// Recovery paths that set `active` bits directly must call
    /// [`EcLocalGraph::rebuild_active_frontier`] before the next superstep.
    pub active_frontier: Vec<u32>,
    /// The in-edges of every copy, `(local source position, weight)`.
    pub(crate) hot_in: Column<(u32, f32)>,
    /// The consumer positions of every copy.
    pub(crate) hot_out: Column<u32>,
    /// Full state of the masters and mirrors in `verts`.
    pub(crate) full: FullState,
    /// What the open recovery episode has changed, if one is open (see
    /// [`crate::episode`]).
    pub(crate) journal: Option<Box<EcJournal<V>>>,
}

/// Graphs are equal when they hold equal copies with equal edge lists and
/// equal full state at every position. Lists and full state are compared as
/// the accessors return them, so slot numbering and the dead runs a column
/// accumulates do not count; neither does an open episode's journal.
impl<V: PartialEq> PartialEq for EcLocalGraph<V> {
    fn eq(&self, other: &Self) -> bool {
        self.eq_by(other, V::eq)
    }
}

impl<V> EcLocalGraph<V> {
    /// `==`, every pair of values compared by `same` — by their encoding,
    /// say, where a program may have got stuck on a NaN.
    pub fn eq_by(&self, other: &Self, same: impl Fn(&V, &V) -> bool) -> bool {
        let mut copies = self.verts.iter().zip(&other.verts);
        self.node == other.node
            && self.index == other.index
            && self.active_frontier == other.active_frontier
            && self.verts.len() == other.verts.len()
            && copies.all(|(a, b)| a.eq_by(b, &same))
            && (0..self.verts.len() as u32).all(|pos| {
                self.in_edges(pos) == other.in_edges(pos)
                    && self.out_local(pos) == other.out_local(pos)
                    && self.full_state(pos) == other.full_state(pos)
            })
    }

    /// Creates an empty local graph for `node`.
    pub fn empty(node: NodeId) -> Self {
        EcLocalGraph {
            node,
            verts: Vec::new(),
            index: PosIndex::new(),
            active_frontier: Vec::new(),
            hot_in: Column::default(),
            hot_out: Column::default(),
            full: FullState::default(),
            journal: None,
        }
    }

    /// Position of `vid`'s local copy, if present.
    pub fn position(&self, vid: Vid) -> Option<u32> {
        self.index.get(vid)
    }

    /// The in-edges of the copy at `pos` as `(local source position,
    /// weight)`, in the order they fold (masters only; empty otherwise).
    #[inline]
    pub fn in_edges(&self, pos: u32) -> &[(u32, f32)] {
        self.hot_in.get(self.verts[pos as usize].in_edges)
    }

    /// Local positions of the consumers the copy at `pos` feeds (its
    /// activation targets).
    #[inline]
    pub fn out_local(&self, pos: u32) -> &[u32] {
        self.hot_out.get(self.verts[pos as usize].out_local)
    }

    /// Number of local copies.
    pub fn len(&self) -> usize {
        self.verts.len()
    }

    /// Whether the partition is empty.
    pub fn is_empty(&self) -> bool {
        self.verts.is_empty()
    }

    /// Iterates local master positions.
    pub fn master_positions(&self) -> impl Iterator<Item = u32> + '_ {
        self.verts
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_master())
            .map(|(i, _)| i as u32)
    }

    /// Number of local masters.
    pub fn num_masters(&self) -> usize {
        self.verts.iter().filter(|v| v.is_master()).count()
    }

    /// Recomputes [`EcLocalGraph::active_frontier`] from the `active` bits.
    ///
    /// O(|verts|); only needed after bulk mutations that bypass
    /// `ec_commit` (graph construction, snapshot restore, recovery).
    pub fn rebuild_active_frontier(&mut self) {
        self.active_frontier.clear();
        for (i, v) in self.verts.iter().enumerate() {
            if v.is_master() && v.active {
                self.active_frontier.push(i as u32);
            }
        }
    }

    /// The replica-location tables of the copy at `pos`, if it carries
    /// full state.
    pub fn locations(&self, pos: u32) -> Option<LocationsRef<'_>> {
        let slot = self.verts[pos as usize].meta?;
        Some(self.full.locations(slot))
    }

    /// Lends the replica-location tables of the copy at `pos` to `edit`, if
    /// it carries full state: what `edit` leaves is what the copy keeps, and
    /// tables it leaves as they were are not written (or journaled) at all.
    pub fn edit_locations<R>(
        &mut self,
        pos: u32,
        edit: impl FnOnce(&mut Locations) -> R,
    ) -> Option<R> {
        let slot = self.verts[pos as usize].meta?;
        Some(self.full.edit_locations(slot, edit))
    }

    /// The full state of the copy at `pos` as it would travel to another
    /// node — a master's consumers read from its own edge list and its
    /// in-edges' sources through its own in-edges, a mirror's from the
    /// store — or `None` for a plain replica. A master's and its mirrors'
    /// compare equal whenever the mirrors are up to date;
    /// [`FullStateRef::to_meta`] makes it owned.
    pub fn full_state(&self, pos: u32) -> Option<FullStateRef<'_>> {
        let v = &self.verts[pos as usize];
        let stored = self.full.get(v.meta?);
        Some(if v.is_master() {
            FullStateRef {
                in_edges: InEdges::Local {
                    edges: self.hot_in.get(v.in_edges),
                    copies: &self.verts,
                },
                out_local_owner: List::Slice(self.hot_out.get(v.out_local)),
                ..stored
            }
        } else {
            stored
        })
    }

    /// Makes `state` the full state of the copy at `pos`, in a new slot if
    /// it had none. Either copy keeps a block, each run copied from `state`
    /// where it holds one in the store's layout; the copy's `kind` decides
    /// what goes in: a master's owner-local lists are its own in-edges and
    /// consumers (which the caller sets) and name their sources, so those
    /// of `state` are not stored a second time — its block's first two runs
    /// are empty. A changed block moves to the byte column's tail.
    pub fn set_full_state(&mut self, pos: u32, state: FullStateRef<'_>) {
        self.set_full_state_lists(pos, state, EdgeLists::ALL);
    }

    /// [`EcLocalGraph::set_full_state`] of the tables and the edge lists
    /// `lists` names; the copy keeps the other lists as they are.
    ///
    /// # Panics
    ///
    /// Panics if the copy has no full state yet and is not sent all of it.
    fn set_full_state_lists(&mut self, pos: u32, state: FullStateRef<'_>, lists: EdgeLists) {
        let v = &self.verts[pos as usize];
        assert!(
            v.meta.is_some() || lists == EdgeLists::ALL,
            "{} has no full state to keep lists of",
            v.vid
        );
        let (state, lists) = match v.is_master() {
            true => {
                let remote = FullStateRef {
                    out_remote: state.out_remote,
                    ..FullStateRef::tables(state.locations)
                };
                let kept = match lists.contains(EdgeLists::OUT_REMOTE) {
                    true => EdgeLists::ALL,
                    false => EdgeLists::NONE,
                };
                (remote, kept)
            }
            false => (state, lists),
        };
        match v.meta {
            Some(slot) => self.full.set(slot, state, lists),
            None => {
                self.touch_copy(pos);
                self.verts[pos as usize].meta = Some(self.full.push(state));
            }
        }
    }

    /// The full state the slot of the copy at `pos` holds, exactly as it
    /// holds it — a mirror's, or, until the first write of a master promoted
    /// from one, the block that mirror kept: the in-edges by source and the
    /// old owner's consumers Migration rewires the master from —, or `None`
    /// for a plain replica.
    pub fn stored_full_state(&self, pos: u32) -> Option<FullStateRef<'_>> {
        Some(self.full.get(self.verts[pos as usize].meta?))
    }

    /// Makes `edges` the remote out-edges of the master at `pos` and says
    /// whether its block changed: it is written anew — two empty runs, then
    /// `edges` — only if it did, so a promoted mirror's block gives up the
    /// lists the mirror kept. (A mirror's change with its block:
    /// `set_full_state`.)
    ///
    /// # Panics
    ///
    /// Panics if the copy is no master or carries no full state.
    pub fn set_out_remote(&mut self, pos: u32, edges: &[RemoteEdge]) -> bool {
        let v = &self.verts[pos as usize];
        assert!(
            v.is_master(),
            "the {:?} copy of {} is no master",
            v.kind,
            v.vid
        );
        self.full.set_out_remote(self.slot_at(pos), edges)
    }

    /// Changes the role of the copy at `pos`. A mirror turned master keeps
    /// its block as it is — no byte is written —, and the open episode, if
    /// any, notes the promotion ([`FullStateBatches::changed_lists`]).
    pub fn set_kind(&mut self, pos: u32, kind: CopyKind) {
        let v = &self.verts[pos as usize];
        if v.kind != kind {
            if let (CopyKind::Mirror, CopyKind::Master, Some(slot)) = (v.kind, kind, v.meta) {
                self.full.note_promoted(slot);
            }
            self.touch_copy(pos);
            self.verts[pos as usize].kind = kind;
        }
    }

    /// Records which node masters the vertex of the copy at `pos`.
    pub fn set_master_node(&mut self, pos: u32, node: NodeId) {
        if self.verts[pos as usize].master_node != node {
            self.touch_copy(pos);
            self.verts[pos as usize].master_node = node;
        }
    }

    /// Sets whether the copy at `pos` computes next; nothing stays staged.
    /// The caller owes a [`EcLocalGraph::rebuild_active_frontier`].
    pub fn set_active(&mut self, pos: u32, active: bool) {
        let v = &self.verts[pos as usize];
        if (v.active, v.next_active) != (active, false) {
            self.touch_copy(pos);
            let v = &mut self.verts[pos as usize];
            (v.active, v.next_active) = (active, false);
        }
    }

    /// Replaces the in-edges of the copy at `pos` by `in_edges`, in their
    /// order, each source read as the position of its copy here: how a
    /// rebuild wires a master once it has placed every copy.
    ///
    /// # Panics
    ///
    /// Panics if a source has no copy here.
    pub fn set_in_edges_by_source(&mut self, pos: u32, in_edges: InEdges<'_>) {
        let (floor, index) = (self.hot_floor()[0], &self.index);
        let v = &mut self.verts[pos as usize];
        let (before, vid) = (v.in_edges, v.vid);
        let local = in_edges.iter().map(|edge| {
            let src = index.get(edge.src);
            let src = src.unwrap_or_else(|| panic!("{} feeds {vid} but has no copy", edge.src));
            (src, edge.weight)
        });
        self.hot_in.replace(&mut v.in_edges, local, floor);
        self.note_copy_span(pos, 0, before);
    }

    /// Replaces the positions the copy at `pos` feeds by those of the
    /// masters here among `consumers`, in their order, written at the
    /// column's tail: how a rebuild wires a copy's consumers, named by
    /// vertex in a full state's remote out-edges or a Rebirth batch, once it
    /// has placed every copy. A consumer mastered elsewhere is skipped.
    pub fn set_out_local_by_consumer(&mut self, pos: u32, consumers: impl Iterator<Item = Vid>) {
        let (index, verts) = (&self.index, &self.verts);
        let master = |at: &u32| verts[*at as usize].is_master();
        let span = self
            .hot_out
            .append(consumers.filter_map(|vid| index.get(vid).filter(master)));
        let before = std::mem::replace(&mut self.verts[pos as usize].out_local, span);
        self.note_copy_span(pos, 1, before);
    }

    /// Appends `consumers` to the positions the copy at `pos` feeds.
    pub fn extend_out_local(&mut self, pos: u32, consumers: &[u32]) {
        let (floor, v) = (self.hot_floor()[1], &mut self.verts[pos as usize]);
        let before = v.out_local;
        self.hot_out.extend(&mut v.out_local, consumers, floor);
        self.note_copy_span(pos, 1, before);
    }

    /// Appends `vertex` as a new copy and returns its position. The copy
    /// starts without edges, whatever graph `vertex` was taken from.
    pub fn push_copy(&mut self, vertex: EcVertex<V>) -> u32 {
        let pos = self.verts.len() as u32;
        self.index.insert(vertex.vid, pos);
        self.verts.push(vertex.unlisted());
        pos
    }

    fn slot_at(&self, pos: u32) -> SlotId {
        let v = &self.verts[pos as usize];
        v.meta
            .unwrap_or_else(|| panic!("copy of {} at {pos} carries no full state", v.vid))
    }

    /// Makes room for copies of `vids`, as a rebuild knows them before it
    /// inserts them one at a time ([`EcLocalGraph::insert_at`]): the array
    /// grows once, and the index into a dense table wherever the loader's
    /// would be one.
    pub fn reserve_copies(&mut self, vids: impl Iterator<Item = Vid>) {
        let (copies, max_vid) = vids.fold((0, None), |(n, max), vid| (n + 1, max.max(Some(vid))));
        if let Some(max_vid) = max_vid {
            self.verts.reserve(copies);
            self.index.reserve(max_vid, copies);
        }
    }

    /// Entries the two hot columns hold — `(in-edges, consumers)` — runs no
    /// copy points at any more included.
    pub fn edge_list_lens(&self) -> (usize, usize) {
        (self.hot_in.0.len(), self.hot_out.0.len())
    }

    /// What the full-state store holds, runs no slot points at any more
    /// included.
    pub fn full_state_lens(&self) -> StoreLens {
        self.full.lens()
    }

    /// What the copies' slots point at: what
    /// [`EcLocalGraph::full_state_lens`] reports for a store without dead
    /// blocks or tables. A master's owner-local lists are its own edge lists
    /// and add two empty runs, a byte each, to its remote out-edges.
    pub fn live_full_state_lens(&self) -> StoreLens {
        self.full.live_lens(self.slots())
    }

    /// Entries in the edge lists the store keeps, summed over the copies'
    /// slots: a mirror's three lists, a master's remote out-edges (and, for
    /// one promoted from a mirror, the two lists that mirror kept).
    pub fn full_state_entries(&self) -> ColumnLens {
        let mut lens = ColumnLens::default();
        for slot in self.slots() {
            lens += self.full.get(slot).lens();
        }
        lens
    }

    /// The copies' slots, in position order.
    fn slots(&self) -> impl Iterator<Item = SlotId> + '_ {
        self.verts.iter().filter_map(|v| v.meta)
    }

    /// How the store's in-edge runs write weights.
    pub fn full_state_weights(&self) -> Weights {
        self.full.weights()
    }

    /// Inserts `vertex` at `pos` feeding `out_local`, without in-edges
    /// ([`EcLocalGraph::set_in_edges_by_source`] gives a master its own),
    /// growing the array as needed (recovery path: position-addressed, no
    /// reindexing of existing entries). Whatever lists `vertex` had in the
    /// graph it was taken from are not taken over.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is already occupied by a different vertex.
    pub fn insert_at(
        &mut self,
        pos: u32,
        vertex: EcVertex<V>,
        out_local: impl IntoIterator<Item = u32>,
    ) where
        V: Clone,
    {
        let p = pos as usize;
        if p >= self.verts.len() {
            // Holes are filled by later recovery messages; a hole that
            // survives recovery would indicate a protocol bug and is caught
            // by `debug_validate`.
            let hole = || {
                let value = vertex.value.clone();
                EcVertex::new(Vid::new(u32::MAX), CopyKind::Replica, self.node, value)
            };
            self.verts.resize_with(p + 1, hole);
        }
        assert!(
            self.verts[p].vid == Vid::new(u32::MAX) || self.verts[p].vid == vertex.vid,
            "position {pos} already holds {}",
            self.verts[p].vid
        );
        self.index.insert(vertex.vid, pos);
        self.verts[p] = EcVertex {
            in_edges: Span::new(self.hot_in.0.len(), 0),
            out_local: self.hot_out.append(out_local),
            ..vertex
        };
    }

    /// Checks structural invariants: the index agrees with the array, no
    /// placeholder holes remain, no run reaches past its column, edge
    /// positions are in range, consumers are masters, every master carries
    /// full state, and the active frontier matches the `active` bits.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        macro_rules! ensure {
            ($ok:expr, $($violation:tt)*) => {
                if !$ok {
                    return Err(format!($($violation)*));
                }
            };
        }
        let n = self.verts.len();
        self.full.validate()?;
        for (i, v) in self.verts.iter().enumerate() {
            ensure!(v.vid != Vid::new(u32::MAX), "hole at position {i}");
            ensure!(
                self.index.get(v.vid) == Some(i as u32),
                "index mismatch at {i}"
            );
            ensure!(
                v.in_edges.range().end <= self.hot_in.0.len()
                    && v.out_local.range().end <= self.hot_out.0.len(),
                "an edge list of {} reaches past its column",
                v.vid
            );
            for &(src, _) in self.in_edges(i as u32) {
                ensure!((src as usize) < n, "in-edge src out of range");
            }
            for &t in self.out_local(i as u32) {
                ensure!((t as usize) < n, "out-edge target out of range");
                ensure!(
                    self.verts[t as usize].is_master(),
                    "activation target at {t} is not a master"
                );
            }
            let slot = v.meta.map(SlotId::index);
            ensure!(
                slot.is_none_or(|slot| slot < self.full.len()),
                "full state of {} is in no slot",
                v.vid
            );
            ensure!(
                slot.is_some() || !v.is_master(),
                "master {} lacks full state",
                v.vid
            );
        }
        ensure!(self.index.len() == n, "index size mismatch");
        let expected = (0..n as u32).filter(|&p| {
            let v = &self.verts[p as usize];
            v.is_master() && v.active
        });
        ensure!(
            self.active_frontier.iter().copied().eq(expected),
            "active frontier out of sync with active bits"
        );
        Ok(())
    }

    /// [`EcLocalGraph::validate`] as an assertion (test/debug aid).
    ///
    /// # Panics
    ///
    /// Panics on any violation.
    pub fn debug_validate(&self) {
        if let Err(violation) = self.validate() {
            panic!("{violation}");
        }
    }
}

/// A batch none of whose copies holds a slot yet — replicas just upgraded to
/// mirrors, fresh mirrors — and that carries every list is adopted whole: one
/// copy per column, the spans moved along, after room for all such batches
/// has been made once. Any other is adopted record by record, as
/// [`EcLocalGraph::set_full_state`] does (a refresh mostly finds the lists it
/// brings already stored, and those are left where they are).
impl<V> FullStateBatches for EcLocalGraph<V> {
    /// Each slot holds the lists its record carries and nothing else, in
    /// the graph's weight layout: a mirror's runs copied, a master's
    /// owner-local lists encoded from its own edge lists, its in-edge
    /// sources read through them.
    fn export_full_states(&self, records: &[(u32, EdgeLists)]) -> (FullState, Vec<EdgeLists>) {
        let state = |pos: u32| {
            let state = self.full_state(pos);
            state.unwrap_or_else(|| panic!("copy at {pos} carries no full state"))
        };
        let states = records
            .iter()
            .map(|&(pos, lists)| state(pos).carrying(lists));
        let lists = records.iter().map(|r| r.1).collect();
        (FullState::shipping(self.full.weights(), states), lists)
    }

    fn adopt_full_states(&mut self, batches: &[(&[u32], &FullState, &[EdgeLists])]) {
        let slotless_mirror = |&pos: &u32| {
            let v = &self.verts[pos as usize];
            v.meta.is_none() && !v.is_master()
        };
        let mut room = StoreLens::default();
        let whole: Vec<bool> = batches
            .iter()
            .map(|&(positions, batch, lists)| {
                assert_eq!(positions.len(), batch.len(), "one position per slot");
                assert!(
                    lists.is_empty() || lists.len() == batch.len(),
                    "lists per slot"
                );
                let all = lists.iter().all(|&carried| carried == EdgeLists::ALL);
                let whole = all && positions.iter().all(slotless_mirror);
                if whole {
                    room += batch.lens();
                }
                whole
            })
            .collect();
        self.full.reserve_exact(room);
        for (&(positions, batch, lists), whole) in batches.iter().zip(whole) {
            let whole = whole && self.full.writes_like(batch);
            let first = whole.then(|| self.full.extend_from(batch));
            for (i, &pos) in positions.iter().enumerate() {
                match first {
                    Some(first) => {
                        self.touch_copy(pos);
                        self.verts[pos as usize].meta = Some(SlotId::from_index(first + i));
                    }
                    None => {
                        let carried = lists.get(i).copied().unwrap_or(EdgeLists::ALL);
                        self.set_full_state_lists(pos, batch.nth(i), carried);
                    }
                }
            }
        }
    }

    fn changed_lists(&self, pos: u32) -> EdgeLists {
        self.lists_changed_in_episode(pos)
    }
}

impl<V: MemSize> MemSize for EcLocalGraph<V> {
    /// The vertex array, the two hot columns, the index, the frontier and
    /// the full-state store: a handful of capacities, plus whatever heap the
    /// values own.
    fn mem_bytes(&self) -> usize {
        let verts: usize = std::mem::size_of::<Vec<EcVertex<V>>>()
            + self.verts.capacity() * std::mem::size_of::<EcVertex<V>>()
            + self
                .verts
                .iter()
                .map(|v| v.value.heap_bytes())
                .sum::<usize>();
        let hot = self.hot_in.capacity_bytes() + self.hot_out.capacity_bytes();
        let index = self.index.mem_bytes();
        let frontier = self.active_frontier.capacity() * std::mem::size_of::<u32>();
        std::mem::size_of::<NodeId>() + verts + hot + index + frontier + self.full.mem_bytes()
    }
}

/// Builds every node's [`EcLocalGraph`] from a partitioning and an FT plan.
///
/// This performs, deterministically, what the distributed loading phase of
/// §4 performs with message exchanges: replica creation, mirror designation
/// with full-state replication, extra-FT-replica creation, and the
/// position/location exchange that enables position-addressed recovery.
/// Once the copy positions are known, each node's graph is built on a
/// thread of its own, in two passes over the edge list (DESIGN.md, "Load
/// path and heap layout"). First every node lays out its copies and its
/// masters' slots and tables and counts, in one scan of the edges it takes
/// part in, every run its store will hold: how many consumers each copy
/// feeds, and in bytes its masters' remote out-edges and — for the mirrors'
/// blocks — their in-edges and consumers. Then each node's byte column is
/// allocated once, at its exact length: its masters' blocks, then a region
/// per owner for the blocks of the mirrors it holds. In the second pass
/// every node fills its hot columns and writes each master's remote
/// out-edges straight into its block; then, as owner, it encodes each
/// mirrored master's in-edges and consumers once, copies the remote run
/// behind them as a slice, and writes the block straight into the region of
/// every node holding a mirror of it; and, as holder, fills its mirrors'
/// heads, rows and table words by walking each owner's masters in order.
/// Nothing holds a list anywhere but in the columns. The input's edges
/// decide once how the runs write weights: not at all when every edge
/// weighs the same. Every column is allocated once, at its final length,
/// and a node's graph is a dozen allocations whatever its size.
///
/// # Panics
///
/// Panics if the plan's or the degree table's vertex count disagrees with
/// the graph, or if a mirror is placed on a node without a copy (plan bug).
pub fn build_edge_cut_graphs<P: VertexProgram>(
    g: &Graph,
    cut: &EdgeCut,
    plan: &FtPlan,
    prog: &P,
    degrees: &Degrees,
) -> Vec<EcLocalGraph<P::Value>> {
    assert_eq!(plan.num_vertices(), g.num_vertices(), "plan size mismatch");
    assert_eq!(
        degrees.num_vertices(),
        g.num_vertices(),
        "degree table size mismatch"
    );
    let parts = cut.num_parts();
    let mut layout = Layout::new(parts, plan, |v| (cut.owner(v), cut.replica_parts(v)));
    // A node's copy list is its graph's vertices once the first pass has
    // laid them out, and goes before the byte columns are allocated.
    let copies = std::mem::take(&mut layout.copies);
    let (ends, weights) = edge_ends(g, cut);
    let loader = EcLoader {
        g,
        cut,
        plan,
        prog,
        degrees,
        layout: &layout,
        weights,
    };
    let table = |len| {
        std::iter::repeat_with(AtomicU32::default)
            .take(len)
            .collect()
    };
    let remote: Vec<AtomicU32> = table(g.num_vertices());
    let listed: Vec<AtomicU32> = table(if plan.is_enabled() {
        g.num_vertices()
    } else {
        0
    });
    let bytes = Bytes {
        remote: &remote,
        listed: &listed,
    };
    let counted = per_node(copies, |p, copies| loader.count(p, copies, &ends, bytes));
    drop(listed);
    let (mut graphs, masters): (Vec<_>, Vec<_>) = counted.into_iter().unzip();
    loader.fill(&mut graphs, &masters, ends, &remote);
    for (lg, index) in graphs.iter_mut().zip(layout.pos_maps) {
        lg.index = index;
    }
    graphs
}

/// The nodes mastering an edge's two endpoints.
#[derive(Clone, Copy, Default)]
struct Ends {
    from: u16,
    to: u16,
}

/// [`Ends`] of every edge of `g`, in edge-list order, and the weight layout
/// the edges' weights make. Every node's builder reads the whole edge list
/// twice to pick out the edges it takes part in; looked up here — once per
/// edge, a slice of the list per thread — the owners cost those scans two
/// sequential bytes apiece instead of two random reads of the ownership
/// table.
///
/// # Panics
///
/// Panics on a cut of more than 65 536 parts.
fn edge_ends(g: &Graph, cut: &EdgeCut) -> (Vec<Ends>, Weights) {
    let parts = cut.num_parts();
    assert!(
        parts <= 1 << 16,
        "{parts} parts: node numbers must fit 16 bits"
    );
    let mut ends = vec![Ends::default(); g.num_edges()];
    let share = g.num_edges().div_ceil(parts).max(1);
    let shares = g
        .edges()
        .chunks(share)
        .zip(ends.chunks_mut(share))
        .collect();
    let weights = per_node(shares, |_, (edges, ends): (&[Edge], &mut [Ends])| {
        for (e, ends) in edges.iter().zip(ends) {
            *ends = Ends {
                from: cut.owner(e.src) as u16,
                to: cut.owner(e.dst) as u16,
            };
        }
        Weights::of(edges.iter().map(|e| e.weight))
    });
    (ends, weights.into_iter().fold(Weights::Unset, Weights::and))
}

/// The read-only inputs every node's builder thread shares. Pass 1 is
/// [`EcLoader::count`] on each node's thread; pass 2 is
/// [`EcLoader::fill`], where each node fills its own columns and its
/// masters' blocks, writes its mirrored masters' blocks into the holders'
/// exactly sized byte columns, a region per owner, and fills its mirror
/// slots. No list is encoded twice or kept anywhere but in the columns.
struct EcLoader<'a, P> {
    /// Its edge list is the one order every list follows: a vertex's
    /// in-edges, consumers and remote out-edges are the edges naming it, in
    /// edge-list order, which is the order contributions fold in and the
    /// order snapshots and recovery messages carry.
    g: &'a Graph,
    cut: &'a EdgeCut,
    plan: &'a FtPlan,
    prog: &'a P,
    degrees: &'a Degrees,
    layout: &'a Layout,
    /// How every store's in-edge runs write weights.
    weights: Weights,
}

/// What the first pass counts of every master, by vertex, in tables all the
/// nodes' threads share — a vertex has one owner, whose thread alone writes
/// its entries, so relaxed loads and stores, plain ones, suffice: the bytes
/// of its remote out-edge entries, and of its in-edge and consumer entries
/// (its mirrors' block holds them; an empty table without mirrors).
#[derive(Clone, Copy)]
struct Bytes<'a> {
    remote: &'a [AtomicU32],
    listed: &'a [AtomicU32],
}

/// Counts `more` bytes onto the entry `at` of a [`Bytes`] table.
fn count_bytes(table: &[AtomicU32], at: Vid, more: usize) {
    let entry = &table[at.index()];
    entry.store(entry.load(Relaxed) + more as u32, Relaxed);
}

/// What a node's first pass tells every node's second about its masters.
struct Masters {
    /// Where the masters' part of the node's store ends: their slots and
    /// table words come first in a freshly built store, and their blocks
    /// first in its byte column; the mirrors' follow.
    lens: StoreLens,
    /// The bytes of each master's mirrors' block, in position order: 0 for a
    /// master without mirrors.
    blocks: Vec<u32>,
    /// Per node, the bytes of the blocks its mirrors of these masters keep:
    /// the length of this node's region of that node's byte column.
    held: Vec<usize>,
}

/// What every node's mirror pass reads of an owner: its masters' heads and
/// table words, and what their mirrors' blocks come to.
struct OwnerTables<'g> {
    heads: &'g [Head],
    words: &'g [u32],
    masters: &'g Masters,
}

/// The location tables `head` names in `words`.
fn tables<'g>(head: &Head, words: &'g [u32]) -> LocationsRef<'g> {
    let words = &words[head.span().range()];
    LocationsRef::from_words(head.master_pos, usize::from(head.replicas), words)
}

/// What a node's second-pass thread writes of its own graph: its copies'
/// runs, its hot columns and its masters' blocks, then its mirror slots.
struct NodeFill<'g, V> {
    verts: &'g mut [EcVertex<V>],
    hot_in: &'g mut [(u32, f32)],
    hot_out: &'g mut [u32],
    /// The masters' rows, set by the first pass, and the blocks they cover.
    master_rows: &'g [Span],
    master_runs: &'g mut [u8],
    mirrors: MirrorPart<'g>,
}

/// What a node's mirror-pass thread writes of its own store: the mirrors'
/// slots and table words, allocated by the first pass.
struct MirrorPart<'g> {
    heads: &'g mut [Head],
    rows: &'g mut [Span],
    words: Tail<'g, u32>,
}

/// The mirrors' part of one column, filled front to back; the column's
/// first `base` entries precede it (spans are column-relative).
struct Tail<'g, T> {
    part: &'g mut [T],
    at: usize,
    base: usize,
}

impl<'g, T: Copy> Tail<'g, T> {
    /// `column`'s first `base` entries, and the part behind them.
    fn split(column: &'g mut [T], base: usize) -> (&'g [T], Tail<'g, T>) {
        let (masters, part) = column.split_at_mut(base);
        (&*masters, Tail { part, at: 0, base })
    }

    /// Copies `items` in behind what is filled and returns their span in the
    /// whole column.
    fn fill(&mut self, items: &[T]) -> Span {
        let span = Span::new(self.base + self.at, items.len());
        self.part[self.at..self.at + items.len()].copy_from_slice(items);
        self.at += items.len();
        span
    }

    fn is_full(&self) -> bool {
        self.at == self.part.len()
    }
}

/// Cuts the first `len` bytes off `stretch` and returns them.
fn take<'a>(stretch: &mut &'a mut [u8], len: usize) -> &'a mut [u8] {
    let (first, rest) = std::mem::take(stretch).split_at_mut(len);
    *stretch = rest;
    first
}

/// A stretch of a byte column cut to the length of what is written into it,
/// filled front to back.
struct Fill<'a>(&'a mut [u8]);

impl Sink for Fill<'_> {
    fn put(&mut self, bytes: &[u8]) {
        take(&mut self.0, bytes.len()).copy_from_slice(bytes);
    }
}

/// Writes `v` as an LEB128 varint at `*cursor` in `column`, a byte at a
/// time, and moves the cursor past it.
fn put_varint(column: &mut [u8], cursor: &mut u32, mut v: u32) {
    let mut at = *cursor as usize;
    while v >= 0x80 {
        column[at] = v as u8 | 0x80;
        v >>= 7;
        at += 1;
    }
    column[at] = v as u8;
    *cursor = at as u32 + 1;
}

/// Moves a counting sort's cursor on by one entry and returns where it stood.
fn advance(cursor: &mut u32) -> usize {
    let at = *cursor;
    *cursor += 1;
    at as usize
}

impl<P: VertexProgram> EcLoader<'_, P> {
    /// First pass: node `p`'s graph without its position index (the caller
    /// moves the layout's in) and without its columns' entries; `ends` is
    /// parallel to the edge list.
    ///
    /// Every list is a stable counting sort of the edges the node takes
    /// part in. An edge whose consumer is mastered here is an in-edge of
    /// that master and a consumer of its source's copy here; an edge whose
    /// source is mastered here and whose consumer is not is a remote
    /// out-edge in the source's block. One scan of the edge list counts
    /// the consumers and, in bytes, every master's remote out-edges and —
    /// when there are mirrors — its in-edges and consumers. Then every
    /// copy's runs are laid out in position order, the hot columns and the
    /// store's slot table and table words are allocated at their final
    /// lengths, and the masters' heads, tables and rows written, the
    /// mirrors' left blank for [`EcLoader::fill`]. So what a superstep reads
    /// is dense in the heap and laid out the same with and without fault
    /// tolerance.
    fn count(
        &self,
        p: usize,
        copies: Vec<Vid>,
        ends: &[Ends],
        bytes: Bytes<'_>,
    ) -> (EcLocalGraph<P::Value>, Masters) {
        let node = NodeId::from_index(p);
        let here = p as u16;
        let (uniform, mirrored) = (self.weights.uniform(), self.plan.is_enabled());

        // Copies; slots in position order, the masters' before the mirrors'.
        let num_masters = copies.iter().filter(|&&v| self.cut.owner(v) == p).count();
        let (mut master_slots, mut mirror_slots) = (0..num_masters, num_masters..);
        let (mut master_words, mut mirror_words) = (0, 0);
        let table_words = |v: Vid| Layout::table_words(v, self.cut.replica_parts(v), self.plan);
        let mut verts: Vec<EcVertex<P::Value>> = copies
            .iter()
            .map(|&v| {
                let owner = NodeId::from_index(self.cut.owner(v));
                let kind = copy_kind(node, owner, self.plan.mirrors(v));
                let mut vert = EcVertex::new(v, kind, owner, self.prog.init(v, self.degrees));
                match kind {
                    CopyKind::Master => {
                        vert.active = self.prog.initially_active(v);
                        master_words += table_words(v);
                        vert.meta = master_slots.next().map(SlotId::from_index);
                    }
                    CopyKind::Mirror => {
                        mirror_words += table_words(v);
                        vert.meta = mirror_slots.next().map(SlotId::from_index);
                    }
                    CopyKind::Replica => {}
                }
                vert
            })
            .collect();
        drop(copies);
        let num_slots = mirror_slots.start;

        // Count the consumers each copy feeds here, and each master's
        // [`Bytes`]. All are kept by vertex, so that the scan looks no
        // position up: a position's varint is sized off the copy list
        // ([`Layout::pos_len`]), an in-edge names its source by vertex and a
        // remote out-edge its consumer.
        let mut consumers = vec![0u32; self.g.num_vertices()];
        let weight = if uniform.is_some() { 0 } else { 4 };
        let mut remote_edges = 0u32;
        for (e, ends) in self.g.edges().iter().zip(ends) {
            if ends.to == here {
                consumers[e.src.index()] += 1;
                if mirrored {
                    count_bytes(bytes.listed, e.dst, weight + e.src.raw().size(None));
                    if ends.from == here {
                        count_bytes(bytes.listed, e.src, self.layout.pos_len(p, e.dst));
                    }
                }
            } else if ends.from == here {
                count_bytes(bytes.remote, e.src, e.dst.raw().size(None));
                remote_edges += 1;
            }
        }

        // Every copy's runs, in position order: a master's in-edge run as
        // long as its in-degree, its block two empty runs and the run of the
        // out-edges it does not feed here. Its mirrors' block is its
        // in-edges and consumers, then that run.
        let mut full = FullState::with_weights(self.weights);
        full.heads.reserve_exact(num_slots);
        full.rows.reserve_exact(num_slots);
        full.words.0.reserve_exact(master_words + mirror_words);
        let mut blocks = Vec::with_capacity(if mirrored { num_masters } else { 0 });
        let mut held = vec![0; self.cut.num_parts()];
        let (mut ins, mut fed, mut runs, mut remote_out_edges) = (0, 0, 0, 0u32);
        for vert in &mut verts {
            let v = vert.vid;
            let fed_here = consumers[v.index()] as usize;
            vert.out_local = Span::new(fed, fed_here);
            vert.in_edges = Span::new(ins, 0);
            fed += fed_here;
            if !vert.is_master() {
                continue;
            }
            let remote_out = (self.degrees.out_degree(v) as usize).checked_sub(fed_here);
            let remote_out = remote_out.expect("degree table disagrees with the graph") as u32;
            remote_out_edges += remote_out;
            let in_degree = self.degrees.in_degree(v);
            vert.in_edges = Span::new(ins, in_degree as usize);
            ins += in_degree as usize;
            let remote = remote_out.size(None) + bytes.remote[v.index()].load(Relaxed) as usize;
            full.rows.push(Span::new(runs, 2 + remote));
            runs += 2 + remote;
            let replicas = self.cut.replica_parts(v);
            let head = (self.layout).push_tables(v, p, replicas, self.plan, &mut full.words);
            full.heads.push(head);
            if mirrored {
                let mirrors = tables(&head, &full.words.0).mirror_nodes();
                let counts = in_degree.size(None) + (fed_here as u32).size(None);
                let listed = bytes.listed[v.index()].load(Relaxed) as usize;
                let size = u32::try_from(counts + listed + remote);
                let size = size.expect("a block is shorter than 4 GiB");
                for m in mirrors {
                    held[m.index()] += size as usize;
                }
                blocks.push(if mirrors.is_empty() { 0 } else { size });
            }
        }
        assert_eq!(fed, ins, "degree table disagrees with the graph");
        assert_eq!(
            remote_out_edges, remote_edges,
            "degree table disagrees with the graph"
        );
        assert_eq!(full.lens().words, master_words, "tables miscounted");
        let lens = StoreLens {
            slots: num_masters,
            words: master_words,
            runs,
        };
        full.heads.resize(num_slots, Head::default());
        full.rows.resize(num_slots, Span::default());
        full.words.0.resize(master_words + mirror_words, 0);

        let active = |vert: &EcVertex<P::Value>| vert.is_master() && vert.active;
        let frontier = (0u32..).zip(&verts).filter(|(_, vert)| active(vert));
        let active_frontier = collect_exact(
            verts.iter().filter(|vert| active(vert)).count(),
            frontier.map(|(pos, _)| pos),
        );
        let lg = EcLocalGraph {
            node,
            verts,
            index: PosIndex::new(),
            active_frontier,
            hot_in: Column(vec![Default::default(); ins]),
            hot_out: Column(vec![Default::default(); ins]),
            full,
            journal: None,
        };
        (lg, Masters { lens, blocks, held })
    }

    /// Second pass. Each node's byte column is allocated at the length the
    /// first pass counted: its masters' blocks, then one region per owner,
    /// in node order. Then each node's thread fills its columns
    /// ([`EcLoader::fill_node`]), writes the block of each of its mirrored
    /// masters once into the region of every node holding one of its
    /// mirrors, in position order, so that every region fills front to
    /// back, and, as holder, walks each owner's masters in that same order,
    /// giving each one mirrored here its head, a copy of its table words
    /// and the row over the next block of that owner's region. A node's
    /// thread writes its own graph and the regions its masters' blocks go
    /// to, and reads the masters' heads and table words of the others.
    /// `ends` is freed once the byte columns are allocated: untouched, they
    /// are address space, and freeing the table before would put them in
    /// the heap its pages go back to, where Migration's appends would later
    /// grow them by copying (`pr_ec_migration` peaked ≈ 4 MiB higher).
    fn fill(
        &self,
        graphs: &mut [EcLocalGraph<P::Value>],
        masters: &[Masters],
        ends: Vec<Ends>,
        remote_at: &[AtomicU32],
    ) {
        let parts = graphs.len();
        let (mut owners, mut nodes) = (Vec::with_capacity(parts), Vec::with_capacity(parts));
        let mut regions: Vec<Vec<&mut [u8]>> =
            (0..parts).map(|_| Vec::with_capacity(parts)).collect();
        for (q, (lg, mine)) in graphs.iter_mut().zip(masters).enumerate() {
            let full = &mut lg.full;
            let (master_heads, heads) = full.heads.split_at_mut(mine.lens.slots);
            let (master_rows, rows) = full.rows.split_at_mut(mine.lens.slots);
            let (words, mirror_words) = Tail::split(&mut full.words.0, mine.lens.words);
            owners.push(OwnerTables {
                heads: &*master_heads,
                words,
                masters: mine,
            });
            let held: usize = masters.iter().map(|m| m.held[q]).sum();
            full.runs.0 = vec![0; mine.lens.runs + held];
            let mut column = &mut full.runs.0[..];
            let master_runs = take(&mut column, mine.lens.runs);
            for (theirs, m) in regions.iter_mut().zip(masters) {
                theirs.push(take(&mut column, m.held[q]));
            }
            nodes.push(NodeFill {
                verts: &mut lg.verts,
                hot_in: &mut lg.hot_in.0,
                hot_out: &mut lg.hot_out.0,
                master_rows: &*master_rows,
                master_runs,
                mirrors: MirrorPart {
                    heads,
                    rows,
                    words: mirror_words,
                },
            });
        }
        drop(ends);
        let owners = &owners;
        let work = nodes.into_iter().zip(regions).collect();
        per_node(work, |p, (mut node, regions)| {
            self.fill_node(p, &mut node, remote_at);
            self.write_blocks(&node, &owners[p], regions);
            self.fill_node_mirrors(p, node, owners);
        });
    }

    /// Fills node `p`'s hot columns and its masters' blocks in one scan of
    /// the edge list, in edge-list order: every cursor moves from its run's
    /// start to its end, a remote out-edge written behind its master's
    /// block's two empty runs (the zeroed column's first two bytes) and
    /// count. Every cursor then stands where its run ends, or a degree was
    /// wrong. The edges' owners are read off the partitioning: the first
    /// pass's table of them is freed. A master's remote cursor is its
    /// vertex's entry of `remote_at`, the table of [`Bytes::remote`] the
    /// first pass counted into, one for every node's thread: the scan looks
    /// no position up for a remote out-edge, which names its consumer by
    /// vertex.
    fn fill_node(&self, p: usize, node: &mut NodeFill<'_, P::Value>, remote_at: &[AtomicU32]) {
        let (at, n) = (&self.layout.pos_maps[p], node.verts.len());
        let starts = |span: fn(&EcVertex<P::Value>) -> Span| {
            collect_exact(n, node.verts.iter().map(|v| span(v).range().start as u32))
        };
        let (mut in_at, mut out_at) = (starts(|v| v.in_edges), starts(|v| v.out_local));
        let masters = || node.verts.iter().filter(|v| v.is_master());
        for (v, block) in masters().zip(node.master_rows) {
            let remote_out = self.degrees.out_degree(v.vid) - v.out_local.len() as u32;
            let mut cursor = block.range().start as u32 + 2;
            put_varint(node.master_runs, &mut cursor, remote_out);
            remote_at[v.vid.index()].store(cursor, Relaxed);
        }
        let (hot_in, hot_out) = (&mut *node.hot_in, &mut *node.hot_out);
        let runs = &mut *node.master_runs;
        for e in self.g.edges() {
            let (from, to) = (self.cut.owner(e.src), self.cut.owner(e.dst));
            if to == p {
                let (src, dst) = (at.at(e.src), at.at(e.dst));
                hot_in[advance(&mut in_at[dst as usize])] = (src, e.weight);
                hot_out[advance(&mut out_at[src as usize])] = dst;
            } else if from == p {
                let slot = &remote_at[e.src.index()];
                let mut cursor = slot.load(Relaxed);
                put_varint(runs, &mut cursor, e.dst.raw());
                slot.store(cursor, Relaxed);
            }
        }
        for (pos, v) in node.verts.iter().enumerate() {
            let ends = [v.in_edges.range().end, v.out_local.range().end].map(|end| end as u32);
            assert_eq!(
                [in_at[pos], out_at[pos]],
                ends,
                "degree table disagrees with the graph at {}",
                v.vid
            );
        }
        for (v, block) in masters().zip(node.master_rows) {
            let end = remote_at[v.vid.index()].load(Relaxed) as usize;
            assert_eq!(
                end,
                block.range().end,
                "degree table disagrees with the graph at {}",
                v.vid
            );
        }
    }

    /// Writes the block of each of `node`'s mirrored masters — its in-edges
    /// and consumers encoded from the node's columns, each in-edge's source
    /// named by the vertex of the copy it reads, its remote out-edges copied
    /// from its own block as a slice — into `regions`, one per node: encoded
    /// into the first mirror's, copied into the others'.
    fn write_blocks(
        &self,
        node: &NodeFill<'_, P::Value>,
        owner: &OwnerTables<'_>,
        mut regions: Vec<&mut [u8]>,
    ) {
        let (uniform, copies) = (self.weights.uniform(), &*node.verts);
        let masters = node.verts.iter().filter(|vert| vert.is_master());
        let slots = (owner.heads.iter().zip(node.master_rows)).zip(&owner.masters.blocks);
        for (vert, ((head, block), &size)) in masters.zip(slots) {
            let tables = tables(head, owner.words);
            let mut mirrors = tables.mirror_nodes().iter();
            let Some(first) = mirrors.next() else {
                continue;
            };
            let remote = &node.master_runs[block.range()][2..];
            let state = FullStateRef {
                locations: tables,
                in_edges: InEdges::Local {
                    edges: &node.hot_in[vert.in_edges.range()],
                    copies: &copies,
                },
                out_local_owner: List::Slice(&node.hot_out[vert.out_local.range()]),
                out_remote: List::Run(Run::new(remote, None)),
            };
            let written = take(&mut regions[first.index()], size as usize);
            let mut fill = Fill(&mut *written);
            put_block(state, uniform, &mut fill);
            assert!(fill.0.is_empty(), "a block was measured too long");
            for m in mirrors {
                take(&mut regions[m.index()], size as usize).copy_from_slice(written);
            }
        }
        assert!(
            regions.iter().all(|region| region.is_empty()),
            "blocks miscounted"
        );
    }

    /// Fills node `q`'s mirror slots, in position order, from the owners'
    /// masters, each owner's walked in its own position order — the order
    /// of its blocks in its region of `q`'s byte column, and of the copies
    /// here, both ascending by vertex: the next of an owner's masters
    /// mirrored here is the master of the next mirror of it here.
    fn fill_node_mirrors(
        &self,
        q: usize,
        node: NodeFill<'_, P::Value>,
        owners: &[OwnerTables<'_>],
    ) {
        let here = NodeId::from_index(q);
        let mut region = node.master_runs.len();
        let mut walks: Vec<_> = owners
            .iter()
            .map(|owner| {
                let at = region;
                region += owner.masters.held[q];
                let mirrored_here = move |&(head, &size): &(&Head, &u32)| {
                    size > 0 && tables(head, owner.words).mirror_nodes().contains(&here)
                };
                let masters = owner.heads.iter().zip(&owner.masters.blocks);
                (masters.filter(mirrored_here), at)
            })
            .collect();
        let mirrors = (0u32..)
            .zip(&*node.verts)
            .filter(|(_, vert)| vert.kind == CopyKind::Mirror);
        let MirrorPart {
            heads,
            rows,
            mut words,
        } = node.mirrors;
        for ((head, row), (pos, vert)) in heads.iter_mut().zip(rows).zip(mirrors) {
            let (masters, at) = &mut walks[vert.master_node.index()];
            let (theirs, &size) = masters.next().expect("a mirror has a master");
            let tables = tables(theirs, owners[vert.master_node.index()].words);
            debug_assert_eq!(tables.replica_position_on(here), Some(pos), "{}", vert.vid);
            *head = theirs.moved_to(words.fill(tables.words()));
            *row = Span::new(*at, size as usize);
            *at += size as usize;
        }
        assert!(words.is_full(), "mirrors' tables miscounted on node {q}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::episode::Episode;
    use crate::full_state::MasterMeta;
    use crate::runs::InEdge;
    use imitator_graph::{gen, Ragged};
    use imitator_partition::{EdgeCutPartitioner, HashEdgeCut};

    struct Count;
    impl VertexProgram for Count {
        type Value = u64;
        type Accum = u64;
        fn init(&self, _v: Vid, _d: &Degrees) -> u64 {
            1
        }
        fn gather(&self, _w: f32, src: &u64) -> u64 {
            *src
        }
        fn combine(&self, a: u64, b: u64) -> u64 {
            a + b
        }
        fn apply(&self, _v: Vid, old: &u64, acc: Option<u64>, _d: &Degrees) -> u64 {
            acc.unwrap_or(*old)
        }
        fn scatter(&self, _v: Vid, old: &u64, new: &u64) -> bool {
            old != new
        }
    }

    /// A plan mirroring every vertex on its first `k` replica nodes.
    fn mirrored_on_first_replicas(g: &Graph, cut: &EdgeCut, k: usize) -> FtPlan {
        let hosts = |v| cut.replica_parts(v).iter().take(k).map(|&p| NodeId::new(p));
        let rows: Vec<Vec<NodeId>> = g.vertices().map(|v| hosts(v).collect()).collect();
        FtPlan {
            mirror: Ragged::from_rows(&rows),
            ..FtPlan::none(g.num_vertices())
        }
    }

    fn build(g: &imitator_graph::Graph, parts: usize) -> (EdgeCut, Vec<EcLocalGraph<u64>>) {
        let cut = HashEdgeCut.partition(g, parts);
        let plan = FtPlan::none(g.num_vertices());
        let degrees = Degrees::of(g);
        let lgs = build_edge_cut_graphs(g, &cut, &plan, &Count, &degrees);
        (cut, lgs)
    }

    #[test]
    fn every_vertex_mastered_once() {
        let g = gen::power_law(800, 2.0, 6, 3);
        let (_cut, lgs) = build(&g, 4);
        let masters: usize = lgs.iter().map(EcLocalGraph::num_masters).sum();
        assert_eq!(masters, g.num_vertices());
        for lg in &lgs {
            lg.debug_validate();
        }
    }

    #[test]
    fn masters_hold_all_in_edges() {
        let g = gen::power_law(500, 2.0, 5, 7);
        let (cut, lgs) = build(&g, 3);
        let mut counted = 0usize;
        for e in g.edges() {
            let lg = &lgs[cut.owner(e.dst)];
            let dst = lg.position(e.dst).unwrap();
            let src = lg.position(e.src).unwrap();
            assert!(lg.in_edges(dst).iter().any(|&(s, _)| s == src));
            counted += 1;
        }
        let total: usize = lgs
            .iter()
            .flat_map(|lg| (0..lg.len() as u32).map(|pos| lg.in_edges(pos).len()))
            .sum();
        assert_eq!(total, counted);
    }

    #[test]
    fn out_local_targets_are_masters() {
        let g = gen::power_law(500, 2.0, 5, 9);
        let (_cut, lgs) = build(&g, 4);
        for lg in &lgs {
            for pos in 0..lg.len() as u32 {
                for &t in lg.out_local(pos) {
                    assert!(lg.verts[t as usize].is_master());
                }
            }
        }
    }

    /// A master's remote out-edges are the edges of the graph that leave it
    /// for a consumer mastered elsewhere, in edge-list order, each naming
    /// the consumer by vertex.
    #[test]
    fn meta_positions_agree_across_nodes() {
        let g = gen::power_law(400, 2.0, 6, 11);
        let (cut, lgs) = build(&g, 4);
        let mut leaving: Vec<Vec<RemoteEdge>> = vec![Vec::new(); g.num_vertices()];
        for e in g.edges() {
            if cut.owner(e.src) != cut.owner(e.dst) {
                leaving[e.src.index()].push(RemoteEdge { consumer: e.dst });
            }
        }
        for lg in &lgs {
            for pos in lg.master_positions() {
                let v = &lg.verts[pos as usize];
                let state = lg.full_state(pos).unwrap();
                assert_eq!(state.locations.master_pos(), pos);
                assert_eq!(
                    state.out_remote.to_vec(),
                    leaving[v.vid.index()],
                    "{}",
                    v.vid
                );
                // replica_nodes point at real copies
                for n in state.locations.replica_nodes() {
                    assert!(lgs[n.index()].position(v.vid).is_some());
                    assert_ne!(n, v.master_node);
                }
                assert_eq!(cut.owner(v.vid), v.master_node.index());
            }
        }
    }

    /// Right after load a mirror's full state is its master's, at every
    /// tolerance level: mirror every vertex on its first `k` replica nodes.
    #[test]
    fn mirrors_carry_full_state() {
        let g = gen::power_law(300, 2.0, 5, 13);
        let cut = HashEdgeCut.partition(&g, 4);
        let degrees = Degrees::of(&g);
        for k in 1..=3 {
            let plan = mirrored_on_first_replicas(&g, &cut, k);
            let lgs = build_edge_cut_graphs(&g, &cut, &plan, &Count, &degrees);
            let mut mirrors = 0;
            for lg in &lgs {
                lg.debug_validate();
                for (pos, v) in lg.verts.iter().enumerate() {
                    if v.kind != CopyKind::Mirror {
                        assert_eq!(v.has_full_state(), v.is_master());
                        continue;
                    }
                    mirrors += 1;
                    let owner = &lgs[v.master_node.index()];
                    let mpos = owner.position(v.vid).unwrap();
                    let (mine, theirs) = (lg.full_state(pos as u32), owner.full_state(mpos));
                    assert!(
                        mine.is_some() && mine == theirs,
                        "k={k}: mirror of {}",
                        v.vid
                    );
                    assert_eq!(mine.unwrap().to_meta(), theirs.unwrap().to_meta());
                }
                // The in-edges in the store are the mirrors': a master's
                // slot holds none.
                let mirrored = |pos: u32| {
                    let v = &lg.verts[pos as usize];
                    let stored = lg.full.get(v.meta?);
                    assert!(!v.is_master() || stored.in_edges.is_empty());
                    Some(stored.in_edges.len())
                };
                let mirrored: usize = (0..lg.len() as u32).filter_map(mirrored).sum();
                assert_eq!(lg.full_state_entries().in_edges, mirrored, "k={k}");
            }
            let planned = plan.mirror.num_items();
            assert!(mirrors > 0 && mirrors == planned, "k={k}");
        }
    }

    /// A loader-built mirror's in-edge run is its count, then for each
    /// in-edge its weight — in the per-edge layout only — and its source's
    /// varint, nothing else: on a graph of one weight and on a weighted one,
    /// and on the first after a list of another weight spread its store to
    /// a weight per edge.
    #[test]
    fn a_mirrors_in_edge_run_is_weights_and_sources() {
        let run_of = |owner: &EcLocalGraph<u64>, v: Vid, weighed: bool| {
            let ins = owner.in_edges(owner.position(v).unwrap());
            let mut run = Vec::new();
            run.put_uvarint(ins.len() as u64);
            for &(src, weight) in ins {
                if weighed {
                    run.extend_from_slice(&weight.to_le_bytes());
                }
                run.put_uvarint(u64::from(owner.verts[src as usize].vid.raw()));
            }
            run
        };
        let in_run = |lg: &EcLocalGraph<u64>, pos: u32| {
            let state = lg.full.get(lg.verts[pos as usize].meta.unwrap());
            let InEdges::Run(ins) = state.in_edges else {
                unreachable!("a store holds runs");
            };
            ins.bytes().to_vec()
        };
        let mirrors = |lg: &EcLocalGraph<u64>| -> Vec<u32> {
            let mirror = |&pos: &u32| lg.verts[pos as usize].kind == CopyKind::Mirror;
            (0..lg.len() as u32).filter(mirror).collect()
        };
        let graphs = [
            (gen::power_law(400, 2.0, 6, 3), true),
            (gen::road_like(400, 5), false),
        ];
        for (g, unweighted) in graphs {
            let cut = HashEdgeCut.partition(&g, 3);
            let plan = mirrored_on_first_replicas(&g, &cut, 1);
            let degrees = Degrees::of(&g);
            let mut lgs = build_edge_cut_graphs(&g, &cut, &plan, &Count, &degrees);
            for lg in &lgs {
                assert_eq!(lg.full_state_weights().uniform().is_some(), unweighted);
                for pos in mirrors(lg) {
                    let (v, owner) = (
                        lg.verts[pos as usize].vid,
                        lg.verts[pos as usize].master_node,
                    );
                    let want = run_of(&lgs[owner.index()], v, !unweighted);
                    assert_eq!(in_run(lg, pos), want, "{v} on {}", lg.node);
                }
            }
            if !unweighted {
                continue;
            }
            // One mirror's in-edges given another weight spread the store.
            let lg = &mut lgs[0];
            let held = mirrors(lg);
            let first = *held
                .iter()
                .find(|&&pos| !in_run(lg, pos).starts_with(&[0]))
                .unwrap();
            let mut other = lg.full_state(first).unwrap().to_meta();
            other.in_edges[0].weight = 0.5;
            lg.set_full_state(first, other.view());
            assert_eq!(lg.full_state_weights(), Weights::PerEdge);
            let lg = &lgs[0];
            for &pos in held.iter().filter(|&&pos| pos != first) {
                let (v, owner) = (
                    lg.verts[pos as usize].vid,
                    lg.verts[pos as usize].master_node,
                );
                assert_eq!(in_run(lg, pos), run_of(&lgs[owner.index()], v, true), "{v}");
            }
        }
    }

    /// The loader sizes the store once: every column, the byte column of
    /// the mirrors' runs included, and the slot table, is as long as it is
    /// large and holds no run no slot points at.
    #[test]
    fn loaded_stores_carry_no_slack() {
        let g = gen::power_law(600, 2.0, 6, 19);
        let cut = HashEdgeCut.partition(&g, 4);
        let plan = mirrored_on_first_replicas(&g, &cut, 2);
        let degrees = Degrees::of(&g);
        for lg in build_edge_cut_graphs(&g, &cut, &plan, &Count, &degrees) {
            assert_eq!(lg.hot_in.0.capacity(), lg.hot_in.0.len());
            assert_eq!(lg.hot_out.0.capacity(), lg.hot_out.0.len());
            let edges = |span: fn(&EcVertex<u64>) -> Span| -> usize {
                lg.verts.iter().map(|v| span(v).len()).sum()
            };
            assert_eq!(edges(|v| v.in_edges), lg.hot_in.0.len());
            assert_eq!(edges(|v| v.out_local), lg.hot_out.0.len());
            let full = &lg.full;
            assert_eq!(full.heads.capacity(), full.heads.len());
            assert_eq!(full.rows.capacity(), full.rows.len());
            assert_eq!(full.words.0.capacity(), full.words.0.len());
            assert_eq!(full.runs.0.capacity(), full.runs.0.len());
            assert_eq!(full.lens(), lg.live_full_state_lens());
        }
    }

    /// A master's slot holds none of the in-edge and consumer entries its
    /// own edge lists already carry or name — its
    /// block's first two runs are empty — and what it exports is still the
    /// full state a mirror stores: the sources are the edge list's, in its
    /// order.
    #[test]
    fn masters_keep_their_edge_lists_once() {
        let g = gen::power_law(300, 2.0, 5, 17);
        let (_cut, lgs) = build(&g, 3);
        for lg in &lgs {
            // No mirrors in this plan: the byte column holds the masters'
            // blocks alone.
            let StoreLens { slots, runs, .. } = lg.full_state_lens();
            assert_eq!(slots, lg.num_masters());
            let mut blocks = 0;
            for pos in lg.master_positions() {
                let stored = lg.stored_full_state(pos).unwrap();
                assert!(stored.in_edges.is_empty() && stored.out_local_owner.is_empty());
                blocks += 2 + stored.out_remote.run().unwrap().bytes().len();
                let state = lg.full_state(pos).unwrap();
                let weights = state.in_edges.iter().map(|edge| edge.weight.to_bits());
                let own = lg
                    .in_edges(pos)
                    .iter()
                    .map(|&(src, w)| (lg.verts[src as usize].vid, w));
                assert!(weights.eq(own.clone().map(|(_, w)| w.to_bits())));
                assert!(state.in_edges.srcs().eq(own.map(|(src, _)| src)));
                assert_eq!(state.out_local_owner.to_vec(), lg.out_local(pos));
                let v = lg.verts[pos as usize].vid;
                let srcs = g.edges().iter().filter(|e| e.dst == v).map(|e| e.src);
                assert!(state.in_edges.srcs().eq(srcs), "sources of {v}");
            }
            assert_eq!(runs, blocks);
        }
    }

    fn state(tag: u32, edges: usize) -> MasterMeta {
        MasterMeta {
            locations: Locations::new(tag, &[NodeId::new(tag)], &[tag], &[]),
            in_edges: (0..edges as u32)
                .map(|i| InEdge {
                    weight: i as f32,
                    src: Vid::new(tag * 100 + i),
                })
                .collect(),
            out_local_owner: (0..edges as u32).map(|i| tag * 10 + i).collect(),
            out_remote: (0..edges as u32)
                .map(|i| RemoteEdge {
                    consumer: Vid::new(tag * 7 + i),
                })
                .collect(),
        }
    }

    /// A mirror with 3 edges, a master with 4 remote out-edges and a mirror
    /// with 2 edges: the master's block holds its remote out-edges behind
    /// two empty runs, the mirrors' hold all three lists.
    fn three_slots() -> (EcLocalGraph<u64>, [MasterMeta; 3]) {
        let mut lg: EcLocalGraph<u64> = EcLocalGraph::empty(NodeId::new(9));
        let metas = [state(1, 3), state(2, 4), state(3, 2)];
        for (pos, meta) in metas.iter().enumerate() {
            let kind = [CopyKind::Mirror, CopyKind::Master][pos % 2];
            lg.insert_at(
                pos as u32,
                EcVertex {
                    kind,
                    ..copy(pos as u32)
                },
                [],
            );
            lg.set_full_state(pos as u32, meta.view());
        }
        (lg, metas)
    }

    /// What the copy at `pos` of [`three_slots`] holds of `meta`.
    fn kept(lg: &EcLocalGraph<u64>, pos: u32, meta: &MasterMeta) -> MasterMeta {
        match lg.verts[pos as usize].kind {
            CopyKind::Master => MasterMeta {
                locations: meta.locations.clone(),
                out_remote: meta.out_remote.clone(),
                ..MasterMeta::default()
            },
            _ => meta.clone(),
        }
    }

    fn copy(vid: u32) -> EcVertex<u64> {
        EcVertex::new(Vid::new(vid), CopyKind::Master, NodeId::new(0), 0u64)
    }

    /// Replaces the in-edges of the copy at `pos`, each source given by the
    /// position of its copy.
    fn set_in(lg: &mut EcLocalGraph<u64>, pos: u32, edges: &[(u32, f32)]) {
        let vid = |src: u32| lg.verts[src as usize].vid;
        let edges: Vec<InEdge> = edges
            .iter()
            .map(|&(src, weight)| InEdge {
                weight,
                src: vid(src),
            })
            .collect();
        lg.set_in_edges_by_source(pos, InEdges::Slice(&edges));
    }

    /// Replacing a mirror's lists (longer, shorter, equal, empty) leaves
    /// every other slot's lists bit-identical: changed lists are a new block
    /// at the tail — empty ones their counts —, equal ones are not written,
    /// and no block is written over.
    #[test]
    fn mutating_one_slot_leaves_the_others_alone() {
        let (mut lg, metas) = three_slots();
        let others = |lg: &EcLocalGraph<u64>| {
            assert_eq!(lg.full_state(1).unwrap().to_meta(), kept(lg, 1, &metas[1]));
            assert_eq!(lg.full_state(2).unwrap().to_meta(), metas[2]);
            lg.debug_validate();
        };
        others(&lg);
        for edges in [5, 1, 1, 0, 4] {
            let runs = lg.full_state_lens().runs;
            let next = state(8, edges);
            let same = lg.full_state(0).unwrap() == next.view();
            lg.set_full_state(0, next.view());
            assert_eq!(lg.full_state(0).unwrap().to_meta(), next);
            assert_eq!(lg.full_state_lens().runs == runs, same);
            others(&lg);
        }
        assert_eq!(lg.full_state_lens().slots, 3, "replacing reuses the slot");
    }

    /// A master's remote out-edges are rewritten as its block is, anew at
    /// the byte column's tail, its other two runs as they were; an equal
    /// list writes nothing, and the other slots keep their blocks.
    #[test]
    fn remote_out_edges_are_rewritten_as_a_block() {
        let (mut lg, metas) = three_slots();
        let all = &metas[1].out_remote;
        let lens = lg.full_state_lens();
        assert!(!lg.set_out_remote(1, all), "nothing changes");
        assert_eq!(lg.full_state_lens(), lens);
        let narrowed = [all[0], all[2], all[3]];
        assert!(lg.set_out_remote(1, &narrowed));
        assert_eq!(lg.full_state(1).unwrap().out_remote.to_vec(), narrowed);
        let stored = lg.stored_full_state(1).unwrap();
        assert!(stored.in_edges.is_empty() && stored.out_local_owner.is_empty());
        let block = 2 + stored.out_remote.run().unwrap().bytes().len();
        assert_eq!(lg.full_state_lens().runs, lens.runs + block, "at the tail");
        assert_eq!(lg.full_state(0).unwrap().to_meta(), metas[0]);
        assert_eq!(lg.full_state(2).unwrap().to_meta(), metas[2]);
        lg.debug_validate();
    }

    /// Only a master's remote out-edges are rewritten on their own; a
    /// mirror's change with its block.
    #[test]
    #[should_panic(expected = "is no master")]
    fn remote_out_edges_are_rewritten_on_masters_only() {
        let (mut lg, _) = three_slots();
        lg.set_out_remote(0, &[]);
    }

    /// Inside an episode the entries a column held at `begin_episode` are
    /// frozen: a changed block is written at the tail and repointed, one
    /// that does not change is not written at all, and a block the episode
    /// wrote is not written over either — so rollback is a truncation plus
    /// the saved spans, and leaves the graph it started from.
    #[test]
    fn an_episode_writes_changed_lists_at_the_tail() {
        let (mut lg, metas) = three_slots();
        let before = lg.clone();
        let loaded = lg.full_state_lens();
        let frozen =
            |lg: &EcLocalGraph<u64>| lg.full.runs.0[..loaded.runs] == before.full.runs.0[..];
        lg.begin_episode();
        // Equal lists: nothing written, nothing journaled but the marks.
        let idle = lg.journal_bytes();
        lg.set_full_state(0, metas[0].view());
        lg.set_full_state(1, metas[1].view());
        assert!(!lg.set_out_remote(1, &metas[1].out_remote));
        assert_eq!((lg.full_state_lens(), lg.journal_bytes()), (loaded, idle));

        // A master's narrowed remote out-edges are a new block, and so is
        // the block the episode wrote when they narrow again.
        let all = &metas[1].out_remote;
        assert!(lg.set_out_remote(1, &[all[0], all[2], all[3]]));
        let once = lg.full_state_lens().runs;
        assert!(once > loaded.runs);
        assert!(lg.set_out_remote(1, &[all[0], all[3]]));
        assert!(lg.full_state_lens().runs > once);
        assert_eq!(
            lg.full_state(1).unwrap().out_remote.to_vec(),
            [all[0], all[3]]
        );
        // A mirror's changed lists are new runs.
        let next = state(9, 2);
        lg.set_full_state(0, next.view());
        assert_eq!(lg.full_state(0).unwrap().to_meta(), next);
        assert!(lg.full_state_lens().runs > loaded.runs);
        lg.debug_validate();
        assert!(frozen(&lg) && lg != before && lg.journal_bytes() > idle);

        lg.rollback();
        assert_eq!(lg.journal_bytes(), 0);
        assert!(lg == before && lg.full_state_lens() == loaded && frozen(&lg));
    }

    /// The two hot columns follow the store's rules for table words: in
    /// place outside an episode; inside one nothing under the mark is written
    /// — a changed list goes to the tail, an unchanged one nowhere, a list
    /// the episode wrote is written over, only the list ending its column
    /// grows where it is — and rollback is the saved spans plus a truncation.
    #[test]
    fn an_episode_writes_changed_edge_lists_at_the_tail() {
        let mut lg: EcLocalGraph<u64> = EcLocalGraph::empty(NodeId::new(0));
        for pos in 0..3 {
            lg.insert_at(pos, copy(pos), []);
        }
        set_in(&mut lg, 0, &[(1, 0.5), (2, 1.5)]);
        set_in(&mut lg, 1, &[(0, 2.5)]);
        for (pos, fed) in [(0, 1), (1, 0), (2, 0)] {
            lg.extend_out_local(pos, &[fed]);
        }
        set_in(&mut lg, 0, &[(2, 9.0)]);
        assert_eq!(lg.edge_list_lens(), (3, 3), "in place outside an episode");
        // An empty list sitting exactly at the column's end, as the loader
        // leaves one wherever a copy without consumers falls last.
        lg.insert_at(3, copy(3), []);
        assert_eq!(lg.verts[3].out_local, Span::new(3, 0));

        let before = lg.clone();
        let frozen = |lg: &EcLocalGraph<u64>| {
            lg.hot_in.0[..3] == before.hot_in.0[..] && lg.hot_out.0[..3] == before.hot_out.0[..]
        };
        lg.begin_episode();
        let idle = lg.journal_bytes();
        set_in(&mut lg, 1, &[(0, 2.5)]);
        lg.extend_out_local(2, &[]);
        assert_eq!(
            (lg.edge_list_lens(), lg.journal_bytes()),
            ((3, 3), idle),
            "equal lists are neither written nor journaled"
        );

        // A replacement that would fit its frozen run goes to the tail all
        // the same; the run the episode wrote is overwritten where it is.
        set_in(&mut lg, 0, &[(1, 4.0)]);
        assert_eq!(
            (lg.in_edges(0), lg.edge_list_lens()),
            (&[(1, 4.0)][..], (4, 3))
        );
        let one_image = lg.journal_bytes();
        set_in(&mut lg, 0, &[(0, 5.0)]);
        assert_eq!(
            (lg.in_edges(0), lg.edge_list_lens()),
            (&[(0, 5.0)][..], (4, 3))
        );
        assert_eq!(lg.journal_bytes(), one_image, "one image per span");
        // The empty list at the mark looks like the first list the episode
        // wrote: growing twice it is saved twice, and goes back to the first.
        lg.extend_out_local(3, &[0]);
        lg.extend_out_local(3, &[1, 2]);
        assert_eq!(
            (lg.out_local(3), lg.edge_list_lens()),
            (&[0, 1, 2][..], (4, 6))
        );
        // A list in mid-column moves to the tail to grow; there it grows
        // where it is.
        lg.extend_out_local(0, &[2]);
        assert_eq!(
            (lg.out_local(0), lg.edge_list_lens()),
            (&[1, 2][..], (4, 8))
        );
        lg.extend_out_local(0, &[1]);
        assert_eq!(
            (lg.out_local(0), lg.edge_list_lens()),
            (&[1, 2, 1][..], (4, 9))
        );
        // A copy the episode appends is not journaled: it goes with the mark.
        let journaled = lg.journal_bytes();
        let appended = lg.push_copy(copy(7));
        lg.extend_out_local(appended, &[0]);
        set_in(&mut lg, appended, &[(2, 1.0)]);
        assert_eq!(lg.journal_bytes(), journaled);
        assert!(frozen(&lg) && lg != before && journaled > one_image);

        lg.rollback();
        assert!(lg == before && lg.edge_list_lens() == (3, 3) && frozen(&lg));
        assert_eq!(lg.verts[3].out_local, Span::new(3, 0));
        assert_eq!((lg.len(), lg.position(Vid::new(7))), (4, None));
        // And in place again.
        set_in(&mut lg, 1, &[(2, 1.0)]);
        assert_eq!(lg.edge_list_lens(), (3, 3));
    }

    /// Equality reads lists through their spans: a graph that replaced a
    /// list and back equals one that never did, dead runs or not.
    #[test]
    fn equality_ignores_dead_runs_and_slot_numbers() {
        let (mut lg, metas) = three_slots();
        let (pristine, _) = three_slots();
        lg.set_full_state(0, state(8, 6).view());
        assert_ne!(lg, pristine);
        lg.set_full_state(0, metas[0].view());
        assert_ne!(lg.full_state_lens(), pristine.full_state_lens());
        assert_eq!(lg, pristine);

        // The same copies given their slots in the opposite order.
        let mut reversed: EcLocalGraph<u64> = EcLocalGraph::empty(NodeId::new(9));
        for pos in 0..3 {
            let v = pristine.verts[pos].clone();
            reversed.insert_at(pos as u32, EcVertex { meta: None, ..v }, []);
        }
        for pos in (0..3).rev() {
            reversed.set_full_state(pos, metas[pos as usize].view());
        }
        assert_ne!(reversed.verts[0].meta, pristine.verts[0].meta);
        assert_eq!(reversed, pristine);
    }

    /// A promoted mirror keeps its block as it is — the promotion writes no
    /// byte —, and still holds the lists it had as a mirror; as a master it
    /// exports its own edge lists, and the vertices they name, in their
    /// place, and importing full state into a master stores its remote
    /// out-edges alone, behind two empty runs.
    #[test]
    fn a_promoted_mirror_keeps_its_block() {
        let (mut lg, metas) = three_slots();
        let runs = lg.full_state_lens().runs;
        lg.set_kind(0, CopyKind::Master);
        assert_eq!(lg.full_state_lens().runs, runs, "no byte written");
        assert_eq!(lg.stored_full_state(0).unwrap().to_meta(), metas[0]);
        let exported = lg.full_state(0).unwrap();
        assert!(exported.in_edges.is_empty() && exported.out_local_owner.is_empty());
        assert_eq!(exported.out_remote.to_vec(), metas[0].out_remote);
        lg.debug_validate();

        set_in(&mut lg, 0, &[(2, 0.5)]);
        lg.set_full_state(0, state(4, 9).view());
        let stored = lg.stored_full_state(0).unwrap();
        assert!(stored.in_edges.is_empty() && stored.out_local_owner.is_empty());
        assert_eq!(stored.out_remote.to_vec(), state(4, 9).out_remote);
        let exported = lg.full_state(0).unwrap();
        let src = lg.verts[2].vid;
        assert!(exported.in_edges.iter().eq([InEdge { weight: 0.5, src }]));
        lg.debug_validate();
    }

    #[test]
    #[should_panic(expected = "more than u32::MAX entries")]
    fn a_run_past_u32_max_is_refused() {
        Span::new(u32::MAX as usize - 1, 2);
    }

    #[test]
    fn extra_ft_replicas_create_copies() {
        let g = gen::from_pairs(3, &[(0, 1), (1, 0)]); // v2 isolated
        let cut = HashEdgeCut.partition(&g, 2);
        let v2 = Vid::new(2);
        let other = NodeId::from_index(1 - cut.owner(v2));
        let on_other = Ragged::from_rows(&[vec![], vec![], vec![other]]);
        let plan = FtPlan {
            mirror: on_other.clone(),
            extra_replicas: on_other,
            ..FtPlan::none(3)
        };
        let degrees = Degrees::of(&g);
        let lgs = build_edge_cut_graphs(&g, &cut, &plan, &Count, &degrees);
        let lg = &lgs[other.index()];
        let pos = lg.position(v2).expect("extra replica exists");
        assert_eq!(lg.verts[pos as usize].kind, CopyKind::Mirror);
        assert!(lg.out_local(pos).is_empty());
    }

    #[test]
    fn insert_at_reproduces_layout() {
        let mut lg: EcLocalGraph<u64> = EcLocalGraph::empty(NodeId::new(0));
        let mk = copy;
        lg.insert_at(2, mk(20), []);
        lg.insert_at(0, mk(5), [2, 2]);
        lg.insert_at(1, mk(11), []);
        // Sources are named by vertex, found where they were placed.
        let by_source = [InEdge {
            weight: 1.0,
            src: Vid::new(5),
        }];
        lg.set_in_edges_by_source(2, InEdges::Slice(&by_source));
        assert_eq!(
            (lg.in_edges(2), lg.out_local(0)),
            (&[(0, 1.0)][..], &[2, 2][..])
        );
        assert_eq!(lg.edge_list_lens(), (1, 2));
        assert_eq!(lg.position(Vid::new(20)), Some(2));
        assert_eq!(lg.position(Vid::new(5)), Some(0));
        assert_eq!(lg.len(), 3);
    }

    #[test]
    #[should_panic(expected = "already holds")]
    fn insert_at_conflict_panics() {
        let mut lg: EcLocalGraph<u64> = EcLocalGraph::empty(NodeId::new(0));
        let mk = copy;
        lg.insert_at(0, mk(1), []);
        lg.insert_at(0, mk(2), []);
    }
}
