//! Edge-cut local graphs (the Cyclops runtime representation).

use imitator_cluster::NodeId;
use imitator_graph::{Edge, Graph, PosIndex, Vid};
use imitator_metrics::MemSize;
use imitator_partition::EdgeCut;
use imitator_storage::codec::Sink;

use crate::episode::EcJournal;
use crate::ftplan::FtPlan;
use crate::full_state::{
    decoded_block_size, put_decoded_block, Column, ColumnLens, CopyVids, EdgeLists, Form,
    FullState, FullStateBatches, FullStateRef, Head, InEdges, List, RemoteEdge, Row, SlotId, Span,
    StoreLens,
};
use crate::load::{collect_exact, copy_kind, per_node, Layout};
use crate::locations::{Locations, LocationsRef, Nodes};
use crate::program::{Degrees, VertexProgram};
use crate::runs::{InEdge, Weights};

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
/// locations and the remote out-edges, decoded. Its owner-local in-edges
/// and consumers *are* its runs of the hot columns, the sources of its
/// in-edges are the vertices of the copies those name, and
/// [`EcLocalGraph::full_state`] hands all three out as such.
///
/// The hot columns follow the cold columns' rules: a list shrinks in place
/// or is rewritten at the column's tail, the columns are never compacted,
/// and inside a recovery episode the entries a column held when it began
/// are frozen.
///
/// The vertex fields are public and a superstep writes them directly. A
/// recovery attempt that may have to be undone writes through the mutators
/// instead (`set_kind`, `set_master_node`, `set_active`, `set_in_edges`,
/// `set_out_local`, `extend_out_local`, `push_copy`, and everything that
/// touches full state): while an episode is open ([`crate::Episode`]) they
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
    pub(crate) journal: Option<Box<EcJournal>>,
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

    /// Number of local replica copies (incl. mirrors).
    pub fn num_replicas(&self) -> usize {
        self.verts.len() - self.num_masters()
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
    /// node — a master's owner-local lists read from its own edge lists and
    /// its in-edge sources through them, a mirror's from the store — or
    /// `None` for a plain replica. A master's and its mirrors' compare equal
    /// whenever the mirrors are up to date; [`FullStateRef::to_meta`] makes
    /// it owned.
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
    /// it had none. The copy's `kind` decides what is kept: a master's
    /// owner-local lists are its own in-edges and consumers (which the
    /// caller sets) and name their sources, so those of `state` are not
    /// stored a second time; a mirror's lists are kept as a block, each run
    /// copied from `state` where it holds one in the store's layout. A
    /// changed block, or list, moves to its column's tail.
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
        match v.meta {
            Some(slot) => self.full.set(slot, state, lists),
            None => {
                assert_eq!(
                    lists,
                    EdgeLists::ALL,
                    "{} has no full state to keep lists of",
                    v.vid
                );
                let form = if v.is_master() {
                    Form::Master
                } else {
                    Form::Block
                };
                self.touch_copy(pos);
                self.verts[pos as usize].meta = Some(self.full.push_as(state, form));
            }
        }
    }

    /// Removes the owner-local lists stored for the copy at `pos` and
    /// returns its in-edges as `(source, weight)` and the old owner's
    /// `out_local_owner`, decoding them: a mirror just promoted to master
    /// stops keeping positions that meant something on the old owner only,
    /// and the sources beside them (its own edge lists say all of it once
    /// Migration has rebuilt them from what is returned). Its slot gives up
    /// its block and becomes a master's, covering its remote out-edges,
    /// decoded, for Migration to rewrite.
    ///
    /// # Panics
    ///
    /// Panics if the copy is no master yet, carries no full state or its
    /// slot is a master's already.
    pub fn take_owner_lists(&mut self, pos: u32) -> (Vec<(Vid, f32)>, Vec<u32>) {
        let v = &self.verts[pos as usize];
        assert!(
            v.is_master(),
            "the {:?} copy of {} is no master",
            v.kind,
            v.vid
        );
        self.full.take_owner_lists(self.slot_at(pos))
    }

    /// Keeps the remote out-edges of the master at `pos` that `keep`
    /// accepts (it may rewrite them), in order, and says whether the list
    /// changed. (A mirror's change with its block: `set_full_state`.)
    ///
    /// # Panics
    ///
    /// Panics if the copy carries no full state or its slot is no master's.
    pub fn retain_out_remote(
        &mut self,
        pos: u32,
        keep: impl FnMut(&mut RemoteEdge) -> bool,
    ) -> bool {
        self.full.retain_out_remote(self.slot_at(pos), keep)
    }

    /// Appends `edges` to the remote out-edges of the master at `pos`.
    ///
    /// # Panics
    ///
    /// Panics if the copy carries no full state or its slot is no master's.
    pub fn extend_out_remote(&mut self, pos: u32, edges: &[RemoteEdge]) {
        self.full.extend_out_remote(self.slot_at(pos), edges);
    }

    /// Changes the role of the copy at `pos`.
    pub fn set_kind(&mut self, pos: u32, kind: CopyKind) {
        if self.verts[pos as usize].kind != kind {
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

    /// Replaces the in-edges of the copy at `pos`.
    pub fn set_in_edges(&mut self, pos: u32, in_edges: &[(u32, f32)]) {
        let (floor, v) = (self.hot_floor()[0], &mut self.verts[pos as usize]);
        let before = v.in_edges;
        self.hot_in
            .replace(&mut v.in_edges, in_edges.iter().copied(), floor);
        self.note_copy_span(pos, 0, before);
    }

    /// Replaces the positions the copy at `pos` feeds.
    pub fn set_out_local(&mut self, pos: u32, consumers: &[u32]) {
        let (floor, v) = (self.hot_floor()[1], &mut self.verts[pos as usize]);
        let before = v.out_local;
        self.hot_out
            .replace(&mut v.out_local, consumers.iter().copied(), floor);
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
    pub fn reserve_copies(&mut self, vids: impl ExactSizeIterator<Item = Vid>) {
        let copies = vids.len();
        if let Some(max_vid) = vids.max() {
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
    /// blocks or lists. A master's owner-local lists are its own edge lists
    /// and add nothing.
    pub fn live_full_state_lens(&self) -> StoreLens {
        self.full.live_lens(self.slots())
    }

    /// Entries in the edge lists the store keeps, summed over the copies'
    /// slots: a master's remote out-edges alone, a mirror's three lists.
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

    /// Inserts `vertex` at `pos` with the edge lists `in_edges` and
    /// `out_local`, growing the array as needed (recovery path:
    /// position-addressed, no reindexing of existing entries). Whatever
    /// lists `vertex` had in the graph it was taken from are not taken over.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is already occupied by a different vertex.
    pub fn insert_at(
        &mut self,
        pos: u32,
        vertex: EcVertex<V>,
        in_edges: &[(u32, f32)],
        out_local: &[u32],
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
            in_edges: self.hot_in.append(in_edges.iter().copied()),
            out_local: self.hot_out.append(out_local.iter().copied()),
            ..vertex
        };
    }

    /// Checks structural invariants: the index agrees with the array, no
    /// placeholder holes remain, no run reaches past its column, edge
    /// positions are in range, consumers are masters, every master carries
    /// full state and keeps no in-edge in it, and the active frontier
    /// matches the `active` bits.
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
            if let Some(slot) = v.meta {
                ensure!(
                    self.full.is_master(slot) == v.is_master(),
                    "the slot of the {:?} copy of {} is {}a master's",
                    v.kind,
                    v.vid,
                    if v.is_master() { "not " } else { "" }
                );
            }
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
/// thread of its own, in two passes (DESIGN.md, "Load path and heap
/// layout"). First every node builds its copies, their edge lists and its
/// masters' full state from the edges it takes part in — two scans of the
/// edge list, count then fill — and measures the block, the runs a message
/// carries, that each mirror of each of its masters keeps. Then every node,
/// as owner, encodes each such block once, in its own position order from
/// its own columns and copy list, and writes it straight into the byte
/// column of every node holding a mirror of it; and, as holder, fills its
/// mirrors' heads, rows and table words by walking each owner's masters in
/// order. A holder's byte column is allocated at its exact length from the
/// owners' measures and laid out by owner, a region each: nothing holds a
/// block anywhere else on the way. The input's edges decide once how the
/// runs write weights: not at all when every edge weighs the same. Every
/// column is allocated once, at its final length, and a node's graph is a
/// dozen allocations whatever its size.
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
    let layout = Layout::new(parts, plan, |v| (cut.owner(v), cut.replica_parts(v)));
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
    let built = per_node(vec![(); parts], |p, ()| {
        let (lg, lens) = loader.node_graph(p, &ends);
        loader.measure_blocks(p, lg, lens)
    });
    let (mut graphs, masters): (Vec<_>, Vec<_>) = built.into_iter().unzip();
    loader.fill_mirrors(&mut graphs, &masters, ends);
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
/// [`EcLoader::node_graph`] and [`EcLoader::measure_blocks`] on each node's
/// thread; pass 2 is [`EcLoader::fill_mirrors`], where each owner writes
/// its mirrored masters' blocks into the holders' exactly sized byte
/// columns, a region per owner, and each holder fills its mirror slots.
/// No block is encoded twice or kept anywhere but in the stores.
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

/// What a node's first pass tells the mirror pass about its masters.
struct Masters {
    /// Where the masters' part of the node's store ends.
    lens: StoreLens,
    /// The bytes of each master's block, in position order: 0 for a master
    /// without mirrors.
    blocks: Vec<u32>,
    /// Per node, the bytes of the blocks its mirrors of these masters keep:
    /// the length of this node's region of that node's byte column.
    held: Vec<usize>,
}

/// What the mirror pass reads of a node: its copies, copy list and hot
/// columns (a master's own edge lists) and the masters' part of its store —
/// its masters' slots and their table words come first in a freshly built
/// store, the mirrors' follow; the decoded remote out-edges are the
/// masters' alone.
struct OwnerView<'g, V> {
    verts: &'g [EcVertex<V>],
    copies: &'g [Vid],
    hot_in: &'g Column<(u32, f32)>,
    hot_out: &'g Column<u32>,
    heads: &'g [Head],
    rows: &'g [Row],
    words: &'g [u32],
    out_remote: &'g [RemoteEdge],
}

impl<'g, V> OwnerView<'g, V> {
    /// The node's masters in position order, which is the order of their
    /// slots, each as its mirrors keep it.
    fn masters(&self) -> impl Iterator<Item = MasterLists<'g>> + '_ {
        let masters = self.verts.iter().filter(|vert| vert.is_master());
        let slots = self.heads.iter().zip(self.rows);
        masters.zip(slots).map(|(vert, (head, row))| MasterLists {
            mirrors: tables(head, self.words).mirror_nodes(),
            in_edges: self.hot_in.get(vert.in_edges),
            copies: self.copies,
            out_local: self.hot_out.get(vert.out_local),
            out_remote: &self.out_remote[row.span().range()],
        })
    }
}

/// The location tables `head` names in `words`.
fn tables<'g>(head: &Head, words: &'g [u32]) -> LocationsRef<'g> {
    let words = &words[head.span().range()];
    LocationsRef::from_words(head.master_pos, usize::from(head.replicas), words)
}

/// A master's edge lists read off its owner's columns, and the nodes holding
/// its mirrors: what its mirrors' block is written from.
struct MasterLists<'g> {
    mirrors: Nodes<'g>,
    in_edges: &'g [(u32, f32)],
    /// The owner's copies, by position: the in-edges' sources.
    copies: &'g [Vid],
    out_local: &'g [u32],
    out_remote: &'g [RemoteEdge],
}

impl MasterLists<'_> {
    /// The in-edges, each with its source.
    fn sourced(&self) -> impl ExactSizeIterator<Item = InEdge> + '_ {
        let copies = self.copies;
        let edge = move |&(pos, weight): &(u32, f32)| {
            let src = copies[pos as usize];
            InEdge { pos, weight, src }
        };
        self.in_edges.iter().map(edge)
    }

    /// Bytes of the block [`MasterLists::put_block`] writes, counted entry
    /// by entry without writing one.
    fn block_size(&self, uniform: Option<f32>) -> usize {
        decoded_block_size(self.sourced(), self.out_local, self.out_remote, uniform)
    }

    /// Writes the block a mirror keeps.
    fn put_block<S: Sink>(&self, uniform: Option<f32>, out: &mut S) {
        let (out_local, out_remote) = (self.out_local, self.out_remote);
        put_decoded_block(self.sourced(), out_local, out_remote, uniform, out);
    }
}

/// What a node's mirror-pass thread writes of its own store: the mirrors'
/// slots and table words, allocated by the first pass.
struct MirrorPart<'g> {
    heads: &'g mut [Head],
    rows: &'g mut [Row],
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

/// Moves a counting sort's cursor on by one entry and returns where it stood.
fn advance(cursor: &mut u32) -> usize {
    let at = *cursor;
    *cursor += 1;
    at as usize
}

impl<P: VertexProgram> EcLoader<'_, P> {
    /// First pass: node `p`'s graph without its position index (the caller
    /// moves the layout's in), and where the masters' part of its store
    /// ends; `ends` is parallel to the edge list.
    ///
    /// Every list is a stable counting sort of the edges the node takes
    /// part in. An edge whose consumer is mastered here is an in-edge of
    /// that master and a consumer of its source's copy here; an edge whose
    /// source is mastered here and whose consumer is not is a remote
    /// out-edge in the source's slot.
    /// One scan of the edge list counts, every column is allocated at its
    /// final length — the two hot columns, then the store's slot table,
    /// table words and remote out-edges, with the mirrors' slots and words
    /// blank for [`EcLoader::fill_mirrors`] — and a second scan fills each
    /// run from its start, so that what a superstep reads is dense in the
    /// heap and laid out the same with and without fault tolerance.
    fn node_graph(&self, p: usize, ends: &[Ends]) -> (EcLocalGraph<P::Value>, StoreLens) {
        let node = NodeId::from_index(p);
        let copies = &self.layout.copies[p];
        let at = &self.layout.pos_maps[p];
        let edges = || self.g.edges().iter().zip(ends);
        let here = p as u16;
        let in_degree = |v: Vid| self.degrees.in_degree(v);
        let out_degree = |v: Vid| self.degrees.out_degree(v);

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
        let num_slots = mirror_slots.start;

        // Count: consumers per copy.
        let mut out_at = vec![0u32; verts.len()];
        for (e, ends) in edges() {
            if ends.to == here {
                out_at[at.at(e.src) as usize] += 1;
            }
        }

        // Where each copy's run starts in every column it has one in: runs
        // lie in position order, a master's in-edge run as long as its
        // in-degree, its remote out-edges the out-edges it does not feed
        // here.
        let (mut in_at, mut remote_at) = (vec![0u32; verts.len()], vec![0u32; verts.len()]);
        let (mut ins, mut fed, mut remote) = (0u32, 0u32, 0u32);
        let past = "a column holds < 2^32 entries";
        for (pos, vert) in verts.iter().enumerate() {
            let consumers = std::mem::replace(&mut out_at[pos], fed);
            fed = fed.checked_add(consumers).expect(past);
            (in_at[pos], remote_at[pos]) = (ins, remote);
            if vert.is_master() {
                let remote_out = out_degree(vert.vid).checked_sub(consumers);
                let remote_out = remote_out.expect("degree table disagrees with the graph");
                ins = ins.checked_add(in_degree(vert.vid)).expect(past);
                remote = remote.checked_add(remote_out).expect(past);
            }
        }
        assert_eq!(fed, ins, "degree table disagrees with the graph");
        let (hot_len, remote) = (ins as usize, remote as usize);
        let lens = StoreLens {
            slots: num_masters,
            words: master_words,
            runs: 0,
            remote,
        };
        let mut full = FullState::with_weights(self.weights);
        full.heads.reserve_exact(num_slots);
        full.rows.reserve_exact(num_slots);
        full.words.0.reserve_exact(master_words + mirror_words);
        full.out_remote.0 = vec![Default::default(); remote];
        let mut hot_in = Column(vec![Default::default(); hot_len]);
        let mut hot_out = Column(vec![Default::default(); hot_len]);

        // Fill, in edge-list order: every cursor moves from its run's start
        // to the next run's.
        for (e, ends) in edges() {
            if ends.to == here {
                let (src, dst) = (at.at(e.src), at.at(e.dst));
                let i = advance(&mut in_at[dst as usize]);
                hot_in.0[i] = (src, e.weight);
                hot_out.0[advance(&mut out_at[src as usize])] = dst;
            } else if ends.from == here {
                let i = advance(&mut remote_at[at.at(e.src) as usize]);
                full.out_remote.0[i] = RemoteEdge {
                    node: NodeId::new(u32::from(ends.to)),
                    pos: self.layout.pos_maps[usize::from(ends.to)].at(e.dst),
                };
            }
        }

        // Every cursor now stands where the next run begins, or a degree
        // was wrong: the runs are the stretches between them.
        let (mut ins, mut fed, mut remote) = (0, 0, 0);
        for (pos, vert) in verts.iter_mut().enumerate() {
            let run = |from: &mut usize, to: u32| {
                let start = std::mem::replace(from, to as usize);
                Span::new(start, to as usize - start)
            };
            vert.in_edges = run(&mut ins, in_at[pos]);
            vert.out_local = run(&mut fed, out_at[pos]);
            let out_remote = run(&mut remote, remote_at[pos]);
            if vert.is_master() {
                let v = vert.vid;
                assert_eq!(
                    (vert.in_edges.len(), out_remote.len()),
                    (
                        in_degree(v) as usize,
                        out_degree(v) as usize - vert.out_local.len()
                    ),
                    "degree table disagrees with the graph at {v}"
                );
                let replicas = self.cut.replica_parts(v);
                let layout = self.layout;
                full.heads
                    .push(layout.push_tables(v, p, replicas, self.plan, &mut full.words));
                full.rows.push(Row::new(out_remote, Form::Master));
            }
        }
        assert_eq!(full.lens().words, master_words, "tables miscounted");
        full.heads.resize(num_slots, Head::default());
        full.rows.resize(num_slots, Row::default());
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
            hot_in,
            hot_out,
            full,
            journal: None,
        };
        (lg, lens)
    }

    /// Measures, without writing a byte, the block of each of node `p`'s
    /// mirrored masters — `lens` says where their part of its store ends —
    /// and what the blocks come to on each node holding mirrors of them.
    fn measure_blocks(
        &self,
        p: usize,
        lg: EcLocalGraph<P::Value>,
        lens: StoreLens,
    ) -> (EcLocalGraph<P::Value>, Masters) {
        let mut held = vec![0; self.layout.copies.len()];
        if !self.plan.is_enabled() {
            let blocks = Vec::new();
            return (lg, Masters { lens, blocks, held });
        }
        let owner = OwnerView {
            verts: &lg.verts,
            copies: &self.layout.copies[p],
            hot_in: &lg.hot_in,
            hot_out: &lg.hot_out,
            heads: &lg.full.heads[..lens.slots],
            rows: &lg.full.rows[..lens.slots],
            words: &lg.full.words.0[..lens.words],
            out_remote: &lg.full.out_remote.0,
        };
        let uniform = self.weights.uniform();
        let blocks = owner.masters().map(|master| {
            if master.mirrors.is_empty() {
                return 0;
            }
            let size = master.block_size(uniform);
            for m in master.mirrors {
                held[m.index()] += size;
            }
            u32::try_from(size).expect("a block is shorter than 4 GiB")
        });
        let blocks = collect_exact(lens.slots, blocks);
        (lg, Masters { lens, blocks, held })
    }

    /// Second pass: every node's mirrors get their full state, which *is*
    /// their master's. Each node's byte column is allocated at the length
    /// the owners measured and cut into one region per owner, in node
    /// order. Then each node's thread, as owner, encodes the block of each
    /// of its mirrored masters once and writes it into the region of every
    /// node holding one of its mirrors, in position order, so that every
    /// region fills front to back; and, as holder, walks each owner's
    /// masters in that same order, giving each one mirrored here its head,
    /// a copy of its table words and the row over the next block of that
    /// owner's region. A node's thread writes its own mirror slots and the
    /// regions its masters' blocks go to, and reads the masters' parts of
    /// the others. `ends`, which pass 1 read, is freed before any block is
    /// written.
    fn fill_mirrors(
        &self,
        graphs: &mut [EcLocalGraph<P::Value>],
        masters: &[Masters],
        ends: Vec<Ends>,
    ) {
        if masters
            .iter()
            .all(|m| m.held.iter().all(|&bytes| bytes == 0))
        {
            return;
        }
        let parts = graphs.len();
        let (mut owners, mut holders) = (Vec::with_capacity(parts), Vec::with_capacity(parts));
        let mut regions: Vec<Vec<&mut [u8]>> =
            (0..parts).map(|_| Vec::with_capacity(parts)).collect();
        for (q, (lg, mine)) in graphs.iter_mut().zip(masters).enumerate() {
            let full = &mut lg.full;
            let (master_heads, heads) = full.heads.split_at_mut(mine.lens.slots);
            let (master_rows, rows) = full.rows.split_at_mut(mine.lens.slots);
            let (words, mirror_words) = Tail::split(&mut full.words.0, mine.lens.words);
            owners.push(OwnerView {
                verts: &lg.verts,
                copies: &self.layout.copies[q],
                hot_in: &lg.hot_in,
                hot_out: &lg.hot_out,
                heads: &*master_heads,
                rows: &*master_rows,
                words,
                out_remote: &full.out_remote.0,
            });
            holders.push(MirrorPart {
                heads,
                rows,
                words: mirror_words,
            });
            full.runs.0 = vec![0; masters.iter().map(|m| m.held[q]).sum()];
            let mut column = &mut full.runs.0[..];
            for (theirs, m) in regions.iter_mut().zip(masters) {
                theirs.push(take(&mut column, m.held[q]));
            }
        }
        // Untouched, the byte columns are address space: freeing the table
        // now, not before they are allocated, keeps them out of the heap its
        // pages go back to, where Migration's appends would later grow them
        // by copying (`pr_ec_migration` peaked ≈ 4 MiB higher).
        drop(ends);
        let owners = &owners;
        let work = regions.into_iter().zip(holders).collect();
        per_node(work, |p, (regions, part)| {
            self.write_blocks(&owners[p], &masters[p].blocks, regions);
            self.fill_node_mirrors(p, part, owners, masters);
        });
    }

    /// Writes the block of each of `owner`'s mirrored masters — measured in
    /// `blocks` — into `regions`, one per node: encoded into the first
    /// mirror's, copied into the others'.
    fn write_blocks(
        &self,
        owner: &OwnerView<'_, P::Value>,
        blocks: &[u32],
        mut regions: Vec<&mut [u8]>,
    ) {
        let uniform = self.weights.uniform();
        for (master, &size) in owner.masters().zip(blocks) {
            let mut mirrors = master.mirrors.iter();
            let Some(first) = mirrors.next() else {
                continue;
            };
            let block = take(&mut regions[first.index()], size as usize);
            let mut fill = Fill(&mut *block);
            master.put_block(uniform, &mut fill);
            assert!(fill.0.is_empty(), "a block was measured too long");
            for m in mirrors {
                take(&mut regions[m.index()], size as usize).copy_from_slice(block);
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
        mut part: MirrorPart<'_>,
        owners: &[OwnerView<'_, P::Value>],
        masters: &[Masters],
    ) {
        let here = NodeId::from_index(q);
        let mut region = 0;
        let mut walks: Vec<_> = owners
            .iter()
            .zip(masters)
            .map(|(owner, theirs)| {
                let at = region;
                region += theirs.held[q];
                let mirrored_here = move |&(head, &size): &(&Head, &u32)| {
                    size > 0 && tables(head, owner.words).mirror_nodes().contains(&here)
                };
                let masters = owner.heads.iter().zip(&theirs.blocks);
                (masters.filter(mirrored_here), at)
            })
            .collect();
        let mirrors = (0u32..)
            .zip(owners[q].verts)
            .filter(|(_, vert)| vert.kind == CopyKind::Mirror);
        let slots = part.heads.iter_mut().zip(part.rows.iter_mut());
        for ((head, row), (pos, vert)) in slots.zip(mirrors) {
            let (masters, at) = &mut walks[vert.master_node.index()];
            let (theirs, &size) = masters.next().expect("a mirror has a master");
            let tables = tables(theirs, owners[vert.master_node.index()].words);
            debug_assert_eq!(tables.replica_position_on(here), Some(pos), "{}", vert.vid);
            *head = theirs.moved_to(part.words.fill(tables.words()));
            *row = Row::new(Span::new(*at, size as usize), Form::Block);
            *at += size as usize;
        }
        assert!(
            part.words.is_full(),
            "mirrors' tables miscounted on node {q}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::episode::Episode;
    use crate::full_state::MasterMeta;
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
    /// the consumer's node and its position there.
    #[test]
    fn meta_positions_agree_across_nodes() {
        let g = gen::power_law(400, 2.0, 6, 11);
        let (cut, lgs) = build(&g, 4);
        let mut leaving: Vec<Vec<RemoteEdge>> = vec![Vec::new(); g.num_vertices()];
        for e in g.edges() {
            let (from, to) = (cut.owner(e.src), cut.owner(e.dst));
            if from != to {
                let pos = lgs[to].position(e.dst).expect("mastered there");
                assert!(lgs[to].verts[pos as usize].is_master());
                leaving[e.src.index()].push(RemoteEdge {
                    node: NodeId::from_index(to),
                    pos,
                });
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
                assert_eq!(lg.full_state_entries().in_srcs, mirrored, "k={k}");
            }
            let planned = plan.mirror.num_items();
            assert!(mirrors > 0 && mirrors == planned, "k={k}");
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
            assert_eq!(full.out_remote.0.capacity(), full.out_remote.0.len());
            assert_eq!(full.lens(), lg.live_full_state_lens());
        }
    }

    /// A master's slot holds none of the `(position, weight)`, source and
    /// consumer entries its own edge lists already carry or name, and what
    /// it exports is still the full state a mirror stores: the sources are
    /// the edge list's, in its order.
    #[test]
    fn masters_keep_their_edge_lists_once() {
        let g = gen::power_law(300, 2.0, 5, 17);
        let (_cut, lgs) = build(&g, 3);
        for lg in &lgs {
            // No mirrors in this plan: the byte column stays empty.
            let StoreLens { slots, runs, .. } = lg.full_state_lens();
            assert_eq!((slots, runs), (lg.num_masters(), 0));
            for pos in lg.master_positions() {
                let state = lg.full_state(pos).unwrap();
                assert_eq!(state.in_edges.owner_local(), lg.in_edges(pos));
                assert_eq!(state.out_local_owner.to_vec(), lg.out_local(pos));
                let v = lg.verts[pos as usize].vid;
                let srcs = g.edges().iter().filter(|e| e.dst == v).map(|e| e.src);
                assert!(state.in_edges.srcs().eq(srcs), "sources of {v}");
            }
        }
    }

    fn state(tag: u32, edges: usize) -> MasterMeta {
        MasterMeta {
            locations: Locations::new(tag, &[NodeId::new(tag)], &[tag], &[]),
            in_edges_owner: (0..edges as u32).map(|i| (tag + i, i as f32)).collect(),
            in_edge_srcs: (0..edges as u32).map(|i| Vid::new(tag * 100 + i)).collect(),
            out_local_owner: (0..edges as u32).map(|i| tag * 10 + i).collect(),
            out_remote: (0..edges as u32)
                .map(|i| RemoteEdge {
                    node: NodeId::new(i),
                    pos: tag * 7 + i,
                })
                .collect(),
        }
    }

    /// A mirror with 3 edges, a master with 4 remote out-edges and a mirror
    /// with 2 edges: the master's slot keeps its remote out-edges decoded,
    /// the mirrors' keep all three lists as a block.
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
                &[],
                &[],
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

    /// A master's remote out-edges are decoded, and rewritten where they
    /// are outside an episode: narrowed in place, extended at the tail
    /// unless they end the column.
    #[test]
    fn remote_out_edges_are_rewritten_decoded() {
        let (mut lg, metas) = three_slots();
        let all = &metas[1].out_remote;
        let lens = lg.full_state_lens();
        assert!(lg.retain_out_remote(1, |r| {
            r.pos += 1;
            r.node != NodeId::new(1)
        }));
        let moved = |r: RemoteEdge| RemoteEdge {
            pos: r.pos + 1,
            ..r
        };
        let narrowed = [moved(all[0]), moved(all[2]), moved(all[3])];
        assert_eq!(lg.full_state(1).unwrap().out_remote.to_vec(), narrowed);
        assert_eq!(lg.full_state_lens(), lens, "narrowing appends nothing");
        assert!(!lg.retain_out_remote(1, |_| true), "nothing to drop");
        // Narrowed, the list no longer ends its column: it moves to the
        // tail to grow, and there grows where it is.
        lg.extend_out_remote(1, &[all[0]]);
        assert_eq!(lg.full_state_lens().remote, lens.remote + 4);
        lg.extend_out_remote(1, &[all[1]]);
        assert_eq!(lg.full_state_lens().remote, lens.remote + 5);
        assert_eq!(lg.full_state(0).unwrap().to_meta(), metas[0]);
        assert_eq!(lg.full_state(2).unwrap().to_meta(), metas[2]);
        lg.debug_validate();
    }

    /// Only a master's remote out-edges are a list of their own; a
    /// mirror's are part of its block.
    #[test]
    #[should_panic(expected = "is no master")]
    fn remote_out_edges_are_rewritten_on_masters_only() {
        let (mut lg, _) = three_slots();
        lg.extend_out_remote(0, &[]);
    }

    /// Inside an episode the entries a column held at `begin_episode` are
    /// frozen: a changed list is written at the tail and repointed, a list
    /// that does not change is not written at all, a decoded list the
    /// episode wrote is overwritten again — so rollback is a truncation plus
    /// the saved spans, and leaves the graph it started from.
    #[test]
    fn an_episode_writes_changed_lists_at_the_tail() {
        let (mut lg, metas) = three_slots();
        let before = lg.clone();
        let loaded = lg.full_state_lens();
        let frozen = |lg: &EcLocalGraph<u64>| {
            let (full, was) = (&lg.full, &before.full);
            full.runs.0[..loaded.runs] == was.runs.0[..]
                && full.out_remote.0[..loaded.remote] == was.out_remote.0[..]
        };
        lg.begin_episode();
        // Equal lists: nothing written, nothing journaled but the marks.
        let idle = lg.journal_bytes();
        lg.set_full_state(0, metas[0].view());
        lg.set_full_state(1, metas[1].view());
        assert!(!lg.retain_out_remote(1, |_| true));
        assert_eq!((lg.full_state_lens(), lg.journal_bytes()), (loaded, idle));

        // Narrowing a frozen decoded run copies what is kept to the tail.
        let all = &metas[1].out_remote;
        assert!(lg.retain_out_remote(1, |r| r.node != NodeId::new(1)));
        let kept_remote = [all[0], all[2], all[3]];
        assert_eq!(lg.full_state(1).unwrap().out_remote.to_vec(), kept_remote);
        assert_eq!(lg.full_state_lens().remote, loaded.remote + 3);
        // The run the episode wrote is narrowed where it is.
        assert!(lg.retain_out_remote(1, |r| r.node != NodeId::new(2)));
        assert_eq!(lg.full_state_lens().remote, loaded.remote + 3);
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

    /// The two hot columns follow the store's rules for decoded lists: in
    /// place outside an episode; inside one nothing under the mark is written
    /// — a changed list goes to the tail, an unchanged one nowhere, a list
    /// the episode wrote is written over, only the list ending its column
    /// grows where it is — and rollback is the saved spans plus a truncation.
    #[test]
    fn an_episode_writes_changed_edge_lists_at_the_tail() {
        let mut lg: EcLocalGraph<u64> = EcLocalGraph::empty(NodeId::new(0));
        for pos in 0..3 {
            lg.insert_at(pos, copy(pos), &[], &[]);
        }
        lg.set_in_edges(0, &[(1, 0.5), (2, 1.5)]);
        lg.set_in_edges(1, &[(0, 2.5)]);
        for (pos, fed) in [(0, 1), (1, 0), (2, 0)] {
            lg.set_out_local(pos, &[fed]);
        }
        lg.set_in_edges(0, &[(2, 9.0)]);
        lg.set_out_local(1, &[2]);
        assert_eq!(lg.edge_list_lens(), (3, 3), "in place outside an episode");
        // An empty list sitting exactly at the column's end, as the loader
        // leaves one wherever a copy without consumers falls last.
        lg.insert_at(3, copy(3), &[], &[]);
        assert_eq!(lg.verts[3].out_local, Span::new(3, 0));

        let before = lg.clone();
        let frozen = |lg: &EcLocalGraph<u64>| {
            lg.hot_in.0[..3] == before.hot_in.0[..] && lg.hot_out.0[..3] == before.hot_out.0[..]
        };
        lg.begin_episode();
        let idle = lg.journal_bytes();
        lg.set_in_edges(1, &[(0, 2.5)]);
        lg.set_out_local(2, &[0]);
        lg.extend_out_local(2, &[]);
        assert_eq!(
            (lg.edge_list_lens(), lg.journal_bytes()),
            ((3, 3), idle),
            "equal lists are neither written nor journaled"
        );

        // A replacement that would fit its frozen run goes to the tail all
        // the same; the run the episode wrote is overwritten where it is.
        lg.set_in_edges(0, &[(1, 4.0)]);
        assert_eq!(
            (lg.in_edges(0), lg.edge_list_lens()),
            (&[(1, 4.0)][..], (4, 3))
        );
        let one_image = lg.journal_bytes();
        lg.set_in_edges(0, &[(0, 5.0)]);
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
        lg.set_in_edges(appended, &[(2, 1.0)]);
        assert_eq!(lg.journal_bytes(), journaled);
        assert!(frozen(&lg) && lg != before && journaled > one_image);

        lg.rollback();
        assert!(lg == before && lg.edge_list_lens() == (3, 3) && frozen(&lg));
        assert_eq!(lg.verts[3].out_local, Span::new(3, 0));
        assert_eq!((lg.len(), lg.position(Vid::new(7))), (4, None));
        // And in place again.
        lg.set_in_edges(1, &[(2, 1.0)]);
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
            reversed.insert_at(pos as u32, EcVertex { meta: None, ..v }, &[], &[]);
        }
        for pos in (0..3).rev() {
            reversed.set_full_state(pos, metas[pos as usize].view());
        }
        assert_ne!(reversed.verts[0].meta, pristine.verts[0].meta);
        assert_eq!(reversed, pristine);
    }

    /// A promoted mirror gives up its owner-local lists and the sources
    /// beside them; as a master it exports its own edge lists, and the
    /// vertices they name, in their place, and importing full state into a
    /// master stores none of the three again.
    #[test]
    fn a_master_slot_stores_no_owner_lists() {
        let (mut lg, metas) = three_slots();
        lg.verts[0].kind = CopyKind::Master;
        let (in_edges, out_local) = lg.take_owner_lists(0);
        let sourced = metas[0].in_edge_srcs.iter().zip(&metas[0].in_edges_owner);
        assert!(in_edges
            .iter()
            .copied()
            .eq(sourced.map(|(&s, &(_, w))| (s, w))));
        assert_eq!(out_local, metas[0].out_local_owner);
        let exported = lg.full_state(0).unwrap();
        assert!(exported.in_edges.is_empty() && exported.out_local_owner.is_empty());
        assert_eq!(exported.out_remote.to_vec(), metas[0].out_remote, "decoded");
        assert_eq!(lg.full_state_entries().in_srcs, 2, "slot 2's");

        lg.set_in_edges(0, &[(2, 0.5)]);
        let runs = lg.full_state_lens().runs;
        lg.set_full_state(0, state(4, 9).view());
        assert_eq!(lg.full_state_lens().runs, runs);
        let exported = lg.full_state(0).unwrap();
        assert_eq!(exported.in_edges.owner_local(), [(2, 0.5)]);
        assert!(exported.in_edges.srcs().eq([lg.verts[2].vid]));
        lg.debug_validate();
    }

    /// Between a mirror's turning master and its slot's giving up the
    /// block, the slot still reads as the block it is — its remote
    /// out-edges the block's, not offsets into the decoded column — and
    /// the graph reports the kind and the slot apart.
    #[test]
    fn a_slot_keeps_its_form_until_the_promotion_takes_the_block() {
        let (mut lg, metas) = three_slots();
        lg.set_kind(0, CopyKind::Master);
        let exported = lg.full_state(0).unwrap();
        assert_eq!(exported.out_remote.to_vec(), metas[0].out_remote);
        assert!(lg
            .validate()
            .is_err_and(|e| e.contains("is not a master's")));
        lg.take_owner_lists(0);
        assert_eq!(
            lg.full_state(0).unwrap().out_remote.to_vec(),
            metas[0].out_remote
        );
        lg.debug_validate();
    }

    /// A copy that is no master yet cannot give its block up.
    #[test]
    #[should_panic(expected = "is no master")]
    fn only_a_master_takes_its_owner_lists() {
        let (mut lg, _) = three_slots();
        lg.take_owner_lists(2);
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
        lg.insert_at(2, mk(20), &[(0, 1.0)], &[]);
        lg.insert_at(0, mk(5), &[], &[2, 2]);
        lg.insert_at(1, mk(11), &[], &[]);
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
        lg.insert_at(0, mk(1), &[], &[]);
        lg.insert_at(0, mk(2), &[], &[]);
    }
}
