//! Edge-cut local graphs (the Cyclops runtime representation).

use imitator_cluster::NodeId;
use imitator_graph::{Csr, Graph, PosIndex, Vid};
use imitator_metrics::MemSize;
use imitator_partition::EdgeCut;

use crate::episode::EcJournal;
use crate::ftplan::FtPlan;
use crate::full_state::{
    ColumnLens, FullState, FullStateRef, RemoteEdge, Slot, SlotId, Span, COLUMNS,
};
use crate::load::{collect_exact, copy_kind, per_node, Layout};
use crate::locations::Locations;
use crate::program::{Degrees, VertexProgram};

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
    /// In-edges as `(local source position, weight)` (masters only).
    pub in_edges: Vec<(u32, f32)>,
    /// Local positions of consumers this copy feeds (activation targets).
    pub out_local: Vec<u32>,
    /// Where the graph's store keeps this copy's full state (masters and
    /// mirrors): read it with [`EcLocalGraph::full_state`], write it with
    /// [`EcLocalGraph::set_full_state`].
    pub meta: Option<SlotId>,
}

impl<V> EcVertex<V> {
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
/// full state. *Which* slot holds it is the store's business: two equal
/// graphs may number their slots differently, and [`EcLocalGraph`]'s
/// equality compares the full state itself.
impl<V: PartialEq> PartialEq for EcVertex<V> {
    fn eq(&self, other: &Self) -> bool {
        self.vid == other.vid
            && self.kind == other.kind
            && self.master_node == other.master_node
            && self.value == other.value
            && self.active == other.active
            && self.next_active == other.next_active
            && self.last_activate == other.last_activate
            && self.in_edges == other.in_edges
            && self.out_local == other.out_local
            && self.meta.is_some() == other.meta.is_some()
    }
}

impl<V: MemSize> MemSize for EcVertex<V> {
    /// The copy and its own edge lists; its full state is counted by the
    /// graph, whose store owns it.
    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<EcVertex<V>>()
            + self.value.heap_bytes()
            + self.in_edges.capacity() * std::mem::size_of::<(u32, f32)>()
            + self.out_local.capacity() * std::mem::size_of::<u32>()
    }
}

/// One node's local partition under edge-cut.
///
/// Vertices live in a position-stable array: recovery reproduces a crashed
/// node's array layout exactly, so edges (stored as positions) stay valid —
/// the paper's lock-free, parallel reconstruction (§5.1.2).
///
/// What a superstep reads — values, activity, `in_edges`, `out_local` — is
/// in the vertex array. Full state lives beside it in one columnar store per
/// node (see [`crate::full_state`]'s module documentation), and of a
/// *master's* full state only what its own edge lists do not already say:
/// the replica locations, the in-edge source IDs and the remote out-edges.
/// Its owner-local in-edges and consumers *are* `in_edges` and `out_local`,
/// and [`EcLocalGraph::full_state`] hands them out as such.
///
/// The fields are public and a superstep writes them directly. A recovery
/// attempt that may have to be undone writes through the mutators instead
/// (`set_kind`, `set_master_node`, `set_active`, `set_in_edges`,
/// `extend_out_local`, `push_copy`, and everything that touches full state):
/// while an episode is open ([`crate::Episode`]) they journal what they
/// change, and cost a branch when none is.
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
    /// Full state of the masters and mirrors in `verts`.
    pub(crate) full: FullState,
    /// What the open recovery episode has changed, if one is open (see
    /// [`crate::episode`]).
    pub(crate) journal: Option<Box<EcJournal>>,
}

/// Graphs are equal when they hold equal copies with equal full state at
/// every position. Full state is compared as [`EcLocalGraph::full_state`]
/// returns it, so slot numbering and the dead runs a store accumulates do
/// not count; neither does an open episode's journal.
impl<V: PartialEq> PartialEq for EcLocalGraph<V> {
    fn eq(&self, other: &Self) -> bool {
        self.node == other.node
            && self.index == other.index
            && self.active_frontier == other.active_frontier
            && self.verts == other.verts
            && (0..self.verts.len() as u32).all(|pos| self.full_state(pos) == other.full_state(pos))
    }
}

impl<V> EcLocalGraph<V> {
    /// Creates an empty local graph for `node`.
    pub fn empty(node: NodeId) -> Self {
        EcLocalGraph {
            node,
            verts: Vec::new(),
            index: PosIndex::new(),
            active_frontier: Vec::new(),
            full: FullState::default(),
            journal: None,
        }
    }

    /// Position of `vid`'s local copy, if present.
    pub fn position(&self, vid: Vid) -> Option<u32> {
        self.index.get(vid)
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

    /// Count of currently active masters.
    pub fn active_masters(&self) -> usize {
        self.verts
            .iter()
            .filter(|v| v.is_master() && v.active)
            .count()
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
    pub fn locations(&self, pos: u32) -> Option<&Locations> {
        let slot = self.verts[pos as usize].meta?;
        Some(self.full.locations(slot))
    }

    /// The replica-location tables of the copy at `pos`, for rewriting.
    pub fn locations_mut(&mut self, pos: u32) -> Option<&mut Locations> {
        let slot = self.verts[pos as usize].meta?;
        self.touch_tables(slot);
        Some(self.full.locations_mut(slot))
    }

    /// The full state of the copy at `pos` as it would travel to another
    /// node — a master's owner-local lists read from its own edge lists, a
    /// mirror's from the store — or `None` for a plain replica. A master's
    /// and its mirrors' compare equal whenever the mirrors are up to date;
    /// [`FullStateRef::to_meta`] makes it owned.
    pub fn full_state(&self, pos: u32) -> Option<FullStateRef<'_>> {
        let v = &self.verts[pos as usize];
        let stored = self.full.get(v.meta?);
        Some(if v.is_master() {
            FullStateRef {
                in_edges_owner: &v.in_edges,
                out_local_owner: &v.out_local,
                ..stored
            }
        } else {
            stored
        })
    }

    /// The full state of the copies at `positions`, a slot each in that
    /// order, in a store sized for them once: what a Migration mirror batch
    /// carries.
    ///
    /// # Panics
    ///
    /// Panics if one of the copies carries no full state.
    pub fn export_full_states(&self, positions: &[u32]) -> FullState {
        let exported = |&pos: &u32| {
            let state = self.full_state(pos);
            state.unwrap_or_else(|| panic!("copy at {pos} carries no full state to export"))
        };
        let mut lens = ColumnLens::default();
        for state in positions.iter().map(exported) {
            lens += state.lens();
        }
        let mut batch = FullState::default();
        batch.reserve_exact(positions.len(), lens);
        for state in positions.iter().map(exported) {
            batch.push(state);
        }
        batch
    }

    /// Makes `state` the full state of the copy at `pos`, in a new slot if
    /// it had none. The copy's `kind` decides what is kept: a master's
    /// owner-local lists are its own `in_edges` and `out_local` (which the
    /// caller sets), so those of `state` are not stored a second time.
    /// Lists that outgrow their run, or whose run an open episode may not
    /// overwrite, move to the column's tail.
    pub fn set_full_state(&mut self, pos: u32, state: FullStateRef<'_>) {
        let v = &self.verts[pos as usize];
        let state = if v.is_master() {
            FullStateRef {
                in_edges_owner: &[],
                out_local_owner: &[],
                ..state
            }
        } else {
            state
        };
        match v.meta {
            Some(slot) => {
                if self.full.locations(slot) != state.locations {
                    self.touch_tables(slot);
                }
                let (before, floor) = (self.spans_at(slot), self.floor());
                self.full.set(slot, state, &floor);
                self.note_spans(slot, before);
            }
            None => {
                self.touch_copy(pos);
                self.verts[pos as usize].meta = Some(self.full.push(state));
            }
        }
    }

    /// Adopts batches of full state: for each `(positions, batch)`, the
    /// `i`-th slot of `batch` becomes the full state of the copy at
    /// `positions[i]`. A batch none of whose copies holds a slot yet —
    /// replicas just upgraded to mirrors, fresh mirrors — is taken whole: one
    /// copy per column, the spans moved along, after room for all such
    /// batches has been made once. Any other is taken record by record, as
    /// [`EcLocalGraph::set_full_state`] does (a refresh mostly finds the
    /// lists it brings already stored, and those are left where they are).
    ///
    /// # Panics
    ///
    /// Panics if a batch and its positions differ in length.
    pub fn adopt_full_states(&mut self, batches: &[(&[u32], &FullState)]) {
        let slotless_mirror = |&pos: &u32| {
            let v = &self.verts[pos as usize];
            v.meta.is_none() && !v.is_master()
        };
        let mut room = (0, ColumnLens::default());
        let whole: Vec<bool> = batches
            .iter()
            .map(|(positions, batch)| {
                assert_eq!(positions.len(), batch.len(), "one position per slot");
                let whole = positions.iter().all(slotless_mirror);
                if whole {
                    room.0 += batch.len();
                    room.1 += batch.column_lens();
                }
                whole
            })
            .collect();
        self.reserve_full_state(room.0, room.1);
        for (&(positions, batch), whole) in batches.iter().zip(whole) {
            let first = whole.then(|| self.full.extend_from(batch));
            for (i, &pos) in positions.iter().enumerate() {
                match first {
                    Some(first) => {
                        self.touch_copy(pos);
                        self.verts[pos as usize].meta = Some(SlotId::from_index(first + i));
                    }
                    None => self.set_full_state(pos, batch.nth(i)),
                }
            }
        }
    }

    /// Removes and returns the owner-local `(in_edges_owner,
    /// out_local_owner)` lists stored for the copy at `pos`: a mirror just
    /// promoted to master stops keeping them (its own edge lists take over
    /// once Migration has rebuilt them from these).
    ///
    /// # Panics
    ///
    /// Panics if the copy carries no full state.
    pub fn take_owner_lists(&mut self, pos: u32) -> (Vec<(u32, f32)>, Vec<u32>) {
        let slot = self.slot_at(pos);
        let stored = self.full.get(slot);
        let lists = (
            stored.in_edges_owner.to_vec(),
            stored.out_local_owner.to_vec(),
        );
        let before = self.spans_at(slot);
        self.full.clear_owner_lists(slot);
        self.note_spans(slot, before);
        lists
    }

    /// Keeps the remote out-edges of the copy at `pos` that `keep` accepts
    /// (it may rewrite them), in order, and says whether the list changed.
    ///
    /// # Panics
    ///
    /// Panics if the copy carries no full state.
    pub fn retain_out_remote(
        &mut self,
        pos: u32,
        keep: impl FnMut(&mut RemoteEdge) -> bool,
    ) -> bool {
        let slot = self.slot_at(pos);
        let (before, floor) = (self.spans_at(slot), self.floor().out_remote);
        let changed = self.full.retain_out_remote(slot, floor, keep);
        if changed {
            self.note_spans(slot, before);
        }
        changed
    }

    /// Appends `edges` to the remote out-edges of the copy at `pos`.
    ///
    /// # Panics
    ///
    /// Panics if the copy carries no full state.
    pub fn extend_out_remote(&mut self, pos: u32, edges: &[RemoteEdge]) {
        let slot = self.slot_at(pos);
        let before = self.spans_at(slot);
        self.full.extend_out_remote(slot, edges);
        self.note_spans(slot, before);
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
    pub fn set_in_edges(&mut self, pos: u32, in_edges: Vec<(u32, f32)>) {
        self.touch_in_edges(pos);
        self.verts[pos as usize].in_edges = in_edges;
    }

    /// Appends `consumers` to the positions the copy at `pos` feeds.
    pub fn extend_out_local(&mut self, pos: u32, consumers: impl IntoIterator<Item = u32>) {
        self.touch_copy(pos);
        self.verts[pos as usize].out_local.extend(consumers);
    }

    /// Appends `vertex` as a new copy and returns its position.
    pub fn push_copy(&mut self, vertex: EcVertex<V>) -> u32 {
        let pos = self.verts.len() as u32;
        self.index.insert(vertex.vid, pos);
        self.verts.push(vertex);
        pos
    }

    fn spans_at(&self, slot: SlotId) -> [Span; COLUMNS] {
        self.full.slots[slot.index()].spans()
    }

    fn slot_at(&self, pos: u32) -> SlotId {
        let v = &self.verts[pos as usize];
        v.meta
            .unwrap_or_else(|| panic!("copy of {} at {pos} carries no full state", v.vid))
    }

    /// Makes room for `slots` more full-state slots holding `lens` more
    /// column entries, one allocation each: a decoder that knows the totals
    /// builds exact-size columns.
    pub fn reserve_full_state(&mut self, slots: usize, lens: ColumnLens) {
        self.full.reserve_exact(slots, lens);
    }

    /// `(slots, entries per column)` the full-state store holds, runs no
    /// slot points at any more included.
    pub fn full_state_lens(&self) -> (usize, ColumnLens) {
        (self.full.slots.len(), self.full.column_lens())
    }

    /// `(slots, entries per column)` the copies' full state adds up to: what
    /// [`EcLocalGraph::full_state_lens`] reports for a store without dead
    /// runs, and what a store rebuilt from these copies will hold. A
    /// master's owner-local lists are its own edge lists and add nothing.
    pub fn live_full_state_lens(&self) -> (usize, ColumnLens) {
        let (mut slots, mut lens) = (0, ColumnLens::default());
        for (pos, v) in self.verts.iter().enumerate() {
            let Some(state) = self.full_state(pos as u32) else {
                continue;
            };
            slots += 1;
            lens.in_srcs += state.in_edge_srcs.len();
            lens.out_remote += state.out_remote.len();
            if !v.is_master() {
                lens.in_edges += state.in_edges_owner.len();
                lens.out_local += state.out_local_owner.len();
            }
        }
        (slots, lens)
    }

    /// Inserts `vertex` at `pos`, growing the array as needed (recovery
    /// path: position-addressed, no reindexing of existing entries).
    ///
    /// # Panics
    ///
    /// Panics if `pos` is already occupied by a different vertex.
    pub fn insert_at(&mut self, pos: u32, vertex: EcVertex<V>)
    where
        V: Clone,
    {
        let p = pos as usize;
        if p >= self.verts.len() {
            // Holes are filled by later recovery messages; a hole that
            // survives recovery would indicate a protocol bug and is caught
            // by `debug_validate`.
            self.verts.reserve(p + 1 - self.verts.len());
            while self.verts.len() <= p {
                self.verts.push(EcVertex {
                    vid: Vid::new(u32::MAX),
                    kind: CopyKind::Replica,
                    master_node: self.node,
                    value: vertex.value.clone(),
                    active: false,
                    next_active: false,
                    last_activate: false,
                    in_edges: Vec::new(),
                    out_local: Vec::new(),
                    meta: None,
                });
            }
        }
        assert!(
            self.verts[p].vid == Vid::new(u32::MAX) || self.verts[p].vid == vertex.vid,
            "position {pos} already holds {}",
            self.verts[p].vid
        );
        self.index.insert(vertex.vid, pos);
        self.verts[p] = vertex;
    }

    /// Checks structural invariants: the index agrees with the array, no
    /// placeholder holes remain, edge positions are in range, consumers are
    /// masters, every master carries full state naming one source per
    /// in-edge, no span reaches past its column, and the active frontier
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
            for &(src, _) in &v.in_edges {
                ensure!((src as usize) < n, "in-edge src out of range");
            }
            for &t in &v.out_local {
                ensure!((t as usize) < n, "out-edge target out of range");
                ensure!(
                    self.verts[t as usize].is_master(),
                    "activation target at {t} is not a master"
                );
            }
            let slot = v.meta.map(SlotId::index);
            ensure!(
                slot.is_none_or(|slot| slot < self.full.slots.len()),
                "full state of {} is in no slot",
                v.vid
            );
            if v.is_master() {
                let srcs = self.full_state(i as u32).map(|state| state.in_edge_srcs);
                ensure!(srcs.is_some(), "master {} lacks full state", v.vid);
                ensure!(
                    srcs.is_some_and(|srcs| srcs.len() == v.in_edges.len()),
                    "master {} does not name one source per in-edge",
                    v.vid
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

impl<V: MemSize> MemSize for EcLocalGraph<V> {
    fn mem_bytes(&self) -> usize {
        let verts: usize = std::mem::size_of::<Vec<EcVertex<V>>>()
            + self.verts.capacity() * std::mem::size_of::<EcVertex<V>>()
            + self
                .verts
                .iter()
                .map(|v| v.mem_bytes() - std::mem::size_of::<EcVertex<V>>())
                .sum::<usize>();
        let index = self.index.mem_bytes();
        let frontier = self.active_frontier.capacity() * std::mem::size_of::<u32>();
        std::mem::size_of::<NodeId>() + verts + index + frontier + self.full.mem_bytes()
    }
}

/// Builds every node's [`EcLocalGraph`] from a partitioning and an FT plan.
///
/// This performs, deterministically, what the distributed loading phase of
/// §4 performs with message exchanges: replica creation, mirror designation
/// with full-state replication, extra-FT-replica creation, and the
/// position/location exchange that enables position-addressed recovery.
/// Once the copy positions are known, each node's graph is built on a
/// thread of its own from the input graph's CSR views, in two passes: every
/// node builds its copies, their edge lists and its masters' full state,
/// then every node copies its mirrors' full state out of what the owners
/// built (DESIGN.md, "Load path and heap layout"). Every list and every
/// full-state column is allocated once, at its final length.
///
/// # Panics
///
/// Panics if the plan's vertex count disagrees with the graph, or if a
/// mirror is placed on a node without a copy (plan bug).
pub fn build_edge_cut_graphs<P: VertexProgram>(
    g: &Graph,
    cut: &EdgeCut,
    plan: &FtPlan,
    prog: &P,
    degrees: &Degrees,
) -> Vec<EcLocalGraph<P::Value>> {
    assert_eq!(plan.num_vertices(), g.num_vertices(), "plan size mismatch");
    let parts = cut.num_parts();
    let layout = Layout::new(parts, plan, |v| (cut.owner(v), cut.replica_parts(v)));
    let loader = EcLoader {
        cut,
        plan,
        prog,
        degrees,
        layout: &layout,
        in_csr: g.in_csr(),
        out_csr: g.out_csr(),
    };
    let built = per_node(vec![(); parts], |p, ()| loader.node_graph(p));
    let (mut graphs, masters): (Vec<_>, Vec<_>) = built.into_iter().unzip();
    loader.fill_mirrors(&mut graphs, &masters);
    for (lg, index) in graphs.iter_mut().zip(layout.pos_maps) {
        lg.index = index;
    }
    graphs
}

/// The read-only inputs every node's builder thread shares.
struct EcLoader<'a, P> {
    cut: &'a EdgeCut,
    plan: &'a FtPlan,
    prog: &'a P,
    degrees: &'a Degrees,
    layout: &'a Layout,
    /// `dst → [(src, weight)]` and `src → [dst]`, each vertex's edges in
    /// edge-list order.
    in_csr: Csr,
    out_csr: Csr,
}

/// Where the masters' part of a freshly built store ends: its masters' slots
/// and their column entries come first, the mirrors' follow.
#[derive(Clone, Copy)]
struct MasterPart {
    slots: usize,
    lens: ColumnLens,
}

/// What the other nodes' second-pass threads read of a node: its copies
/// (for a master's own edge lists) and the masters' part of its store.
struct OwnerView<'g, V> {
    verts: &'g [EcVertex<V>],
    slots: &'g [Slot],
    in_srcs: &'g [Vid],
    out_remote: &'g [RemoteEdge],
}

/// What a node's second-pass thread writes: the mirrors' part of its store,
/// allocated by the first pass.
struct MirrorPart<'g> {
    /// Column entries before each part (spans are column-relative).
    base: ColumnLens,
    slots: &'g mut [Slot],
    in_edges: &'g mut [(u32, f32)],
    in_srcs: &'g mut [Vid],
    out_local: &'g mut [u32],
    out_remote: &'g mut [RemoteEdge],
}

/// Copies `items` to `part[*at..]`, advancing `*at`; returns the run's span
/// in the whole column, whose first `base` entries precede `part`.
fn fill<T: Copy>(part: &mut [T], at: &mut usize, base: usize, items: &[T]) -> Span {
    part[*at..*at + items.len()].copy_from_slice(items);
    let span = Span::new(base + *at, items.len());
    *at += items.len();
    span
}

impl<P: VertexProgram> EcLoader<'_, P> {
    /// First pass: node `p`'s graph without its position index (the caller
    /// moves the layout's in), and where the masters' part of its store
    /// ends. Allocates the edge lists of every copy, then the store at its
    /// final size — a slot table and four columns, counted before they are
    /// filled — so that what a superstep reads is dense in the heap and laid
    /// out the same with and without fault tolerance. The masters' slots are
    /// filled here; the mirrors' are left blank for
    /// [`EcLoader::fill_mirrors`].
    fn node_graph(&self, p: usize) -> (EcLocalGraph<P::Value>, MasterPart) {
        let node = NodeId::from_index(p);
        let copies = &self.layout.copies[p];
        // Slots in position order, the masters' before the mirrors'.
        let num_masters = copies.iter().filter(|&&v| self.cut.owner(v) == p).count();
        let (mut master_slots, mut mirror_slots) = (0..num_masters, num_masters..);
        let verts: Vec<EcVertex<P::Value>> = copies
            .iter()
            .map(|&v| {
                let owner = NodeId::from_index(self.cut.owner(v));
                let kind = copy_kind(node, owner, self.plan.mirrors(v));
                let is_master = kind == CopyKind::Master;
                EcVertex {
                    vid: v,
                    kind,
                    master_node: owner,
                    value: self.prog.init(v, self.degrees),
                    active: is_master && self.prog.initially_active(v),
                    next_active: false,
                    last_activate: false,
                    // Every edge lives on its consumer's owner.
                    in_edges: if is_master {
                        self.in_edges_at(v, p)
                    } else {
                        Vec::new()
                    },
                    out_local: self.out_local_at(v, p),
                    meta: match kind {
                        CopyKind::Master => master_slots.next(),
                        CopyKind::Mirror => mirror_slots.next(),
                        CopyKind::Replica => None,
                    }
                    .map(SlotId::from_index),
                }
            })
            .collect();

        // Count. A master's slot keeps its in-edge sources and its remote
        // out-edges (the out-edges its own `out_local` does not cover); a
        // mirror's keeps all four lists.
        let (mut masters, mut total) = (ColumnLens::default(), ColumnLens::default());
        for vert in &verts {
            let (ins, outs) = (self.in_csr.degree(vert.vid), self.out_csr.degree(vert.vid));
            match vert.kind {
                CopyKind::Master => {
                    masters.in_srcs += ins;
                    masters.out_remote += outs - vert.out_local.len();
                }
                CopyKind::Mirror => {
                    let owner = vert.master_node.index();
                    let targets = self.out_csr.neighbor_slice(vert.vid).iter();
                    let local = targets.filter(|&&t| self.cut.owner(t) == owner).count();
                    total.in_edges += ins;
                    total.in_srcs += ins;
                    total.out_local += local;
                    total.out_remote += outs - local;
                }
                CopyKind::Replica => {}
            }
        }
        total.in_srcs += masters.in_srcs;
        total.out_remote += masters.out_remote;
        let num_slots = mirror_slots.start;

        // Fill the masters' part, then blank the mirrors'.
        let mut full = FullState::default();
        full.reserve_exact(num_slots, total);
        for vert in verts.iter().filter(|vert| vert.is_master()) {
            let v = vert.vid;
            let remote = self.out_csr.neighbor_slice(v).iter().filter_map(|&target| {
                let consumer = self.cut.owner(target);
                (consumer != p).then(|| RemoteEdge {
                    target,
                    node: NodeId::from_index(consumer),
                    pos: self.layout.pos_maps[consumer].at(target),
                })
            });
            let slot = Slot {
                loc: self
                    .layout
                    .locations(v, p, self.cut.replica_parts(v), self.plan),
                in_srcs: full
                    .in_srcs
                    .append(self.in_csr.neighbor_slice(v).iter().copied()),
                out_remote: full.out_remote.append(remote),
                ..Slot::default()
            };
            full.slots.push(slot);
        }
        debug_assert_eq!(full.column_lens(), masters, "masters' columns miscounted");
        full.slots.resize_with(num_slots, Slot::default);
        full.in_edges.0.resize(total.in_edges, Default::default());
        full.in_srcs.0.resize(total.in_srcs, Default::default());
        full.out_local.0.resize(total.out_local, Default::default());
        full.out_remote
            .0
            .resize(total.out_remote, Default::default());

        let mut lg = EcLocalGraph {
            node,
            verts,
            index: PosIndex::new(),
            active_frontier: Vec::new(),
            full,
            journal: None,
        };
        lg.rebuild_active_frontier();
        lg.active_frontier.shrink_to_fit();
        let masters = MasterPart {
            slots: num_masters,
            lens: masters,
        };
        (lg, masters)
    }

    /// Second pass: fills every node's mirror slots. A mirror's full state
    /// *is* its master's — the owner-local lists are the master's own
    /// `in_edges` and `out_local`, the rest is in the masters' part of the
    /// owner's store — so each list is one `memcpy` out of what the owner's
    /// first pass built, not a second derivation edge by edge. Each node's
    /// thread writes the mirrors' part of its own store and reads the
    /// others' copies and masters' parts.
    fn fill_mirrors(&self, graphs: &mut [EcLocalGraph<P::Value>], masters: &[MasterPart]) {
        let (mut owners, mut mirrors) = (Vec::new(), Vec::new());
        for (lg, part) in graphs.iter_mut().zip(masters) {
            let full = &mut lg.full;
            let (master_slots, slots) = full.slots.split_at_mut(part.slots);
            let (_, in_edges) = full.in_edges.0.split_at_mut(part.lens.in_edges);
            let (master_srcs, in_srcs) = full.in_srcs.0.split_at_mut(part.lens.in_srcs);
            let (_, out_local) = full.out_local.0.split_at_mut(part.lens.out_local);
            let (master_remote, out_remote) = full.out_remote.0.split_at_mut(part.lens.out_remote);
            owners.push(OwnerView {
                verts: &lg.verts[..],
                slots: &*master_slots,
                in_srcs: &*master_srcs,
                out_remote: &*master_remote,
            });
            mirrors.push(MirrorPart {
                base: part.lens,
                slots,
                in_edges,
                in_srcs,
                out_local,
                out_remote,
            });
        }
        if mirrors.iter().all(|m| m.slots.is_empty()) {
            return;
        }
        let owners = &owners;
        per_node(mirrors, |q, part| self.fill_node_mirrors(q, part, owners));
    }

    fn fill_node_mirrors(
        &self,
        q: usize,
        part: MirrorPart<'_>,
        owners: &[OwnerView<'_, P::Value>],
    ) {
        let MirrorPart {
            base,
            slots,
            in_edges,
            in_srcs,
            out_local,
            out_remote,
        } = part;
        let mut at = ColumnLens::default();
        let mirrors = owners[q]
            .verts
            .iter()
            .filter(|vert| vert.kind == CopyKind::Mirror);
        for (slot, vert) in slots.iter_mut().zip(mirrors) {
            let o = vert.master_node.index();
            let master = &owners[o].verts[self.layout.pos_maps[o].at(vert.vid) as usize];
            let theirs = &owners[o].slots[master.meta.expect("masters carry full state").index()];
            *slot = Slot {
                loc: theirs.loc.clone(),
                in_edges: fill(in_edges, &mut at.in_edges, base.in_edges, &master.in_edges),
                in_srcs: fill(
                    in_srcs,
                    &mut at.in_srcs,
                    base.in_srcs,
                    &owners[o].in_srcs[theirs.in_srcs.range()],
                ),
                out_local: fill(
                    out_local,
                    &mut at.out_local,
                    base.out_local,
                    &master.out_local,
                ),
                out_remote: fill(
                    out_remote,
                    &mut at.out_remote,
                    base.out_remote,
                    &owners[o].out_remote[theirs.out_remote.range()],
                ),
            };
        }
        let room = ColumnLens {
            in_edges: in_edges.len(),
            in_srcs: in_srcs.len(),
            out_local: out_local.len(),
            out_remote: out_remote.len(),
        };
        assert_eq!(at, room, "mirrors' columns miscounted on node {q}");
    }

    /// `v`'s in-edges as `(source position on node p, weight)`.
    fn in_edges_at(&self, v: Vid, p: usize) -> Vec<(u32, f32)> {
        let at = &self.layout.pos_maps[p];
        collect_exact(
            self.in_csr.degree(v),
            self.in_csr.neighbors(v).map(|(src, w)| (at.at(src), w)),
        )
    }

    /// Positions on node `p` of the consumers `v`'s copy there feeds: the
    /// targets of `v`'s out-edges that `p` masters.
    fn out_local_at(&self, v: Vid, p: usize) -> Vec<u32> {
        let at = &self.layout.pos_maps[p];
        let fed = || {
            let targets = self.out_csr.neighbor_slice(v).iter();
            targets.filter(move |&&t| self.cut.owner(t) == p)
        };
        collect_exact(fed().count(), fed().map(|&t| at.at(t)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::episode::Episode;
    use crate::full_state::MasterMeta;
    use imitator_graph::gen;
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
            let dst = lg.position(e.dst).unwrap() as usize;
            let src = lg.position(e.src).unwrap();
            assert!(lg.verts[dst].in_edges.iter().any(|&(s, _)| s == src));
            counted += 1;
        }
        let total: usize = lgs
            .iter()
            .flat_map(|lg| lg.verts.iter().map(|v| v.in_edges.len()))
            .sum();
        assert_eq!(total, counted);
    }

    #[test]
    fn out_local_targets_are_masters() {
        let g = gen::power_law(500, 2.0, 5, 9);
        let (_cut, lgs) = build(&g, 4);
        for lg in &lgs {
            for v in &lg.verts {
                for &t in &v.out_local {
                    assert!(lg.verts[t as usize].is_master());
                }
            }
        }
    }

    #[test]
    fn meta_positions_agree_across_nodes() {
        let g = gen::power_law(400, 2.0, 6, 11);
        let (cut, lgs) = build(&g, 4);
        for lg in &lgs {
            for pos in lg.master_positions() {
                let v = &lg.verts[pos as usize];
                let state = lg.full_state(pos).unwrap();
                assert_eq!(state.locations.master_pos(), pos);
                for r in state.out_remote {
                    let remote = &lgs[r.node.index()];
                    assert_eq!(remote.position(r.target), Some(r.pos));
                    assert!(remote.verts[r.pos as usize].is_master());
                }
                // replica_nodes point at real copies
                for n in state.locations.replica_nodes() {
                    assert!(lgs[n.index()].position(v.vid).is_some());
                    assert_ne!(*n, v.master_node);
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
            let mut plan = FtPlan::none(g.num_vertices());
            for v in g.vertices() {
                let hosts = cut.replica_parts(v).iter().take(k);
                plan.mirror[v.index()] = hosts.map(|&p| NodeId::new(p)).collect();
            }
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
            }
            let planned: usize = plan.mirror.iter().map(Vec::len).sum();
            assert!(mirrors > 0 && mirrors == planned, "k={k}");
        }
    }

    /// The loader sizes the store once: every column, and the slot table, is
    /// as long as it is large and holds no run no slot points at.
    #[test]
    fn loaded_stores_carry_no_slack() {
        let g = gen::power_law(600, 2.0, 6, 19);
        let cut = HashEdgeCut.partition(&g, 4);
        let mut plan = FtPlan::none(g.num_vertices());
        for v in g.vertices() {
            let hosts = cut.replica_parts(v).iter().take(2);
            plan.mirror[v.index()] = hosts.map(|&p| NodeId::new(p)).collect();
        }
        let degrees = Degrees::of(&g);
        for lg in build_edge_cut_graphs(&g, &cut, &plan, &Count, &degrees) {
            let full = &lg.full;
            assert_eq!(full.slots.capacity(), full.slots.len());
            assert_eq!(full.in_edges.0.capacity(), full.in_edges.0.len());
            assert_eq!(full.in_srcs.0.capacity(), full.in_srcs.0.len());
            assert_eq!(full.out_local.0.capacity(), full.out_local.0.len());
            assert_eq!(full.out_remote.0.capacity(), full.out_remote.0.len());
            let mut live = ColumnLens::default();
            for slot in &full.slots {
                live.in_edges += slot.in_edges.len();
                live.in_srcs += slot.in_srcs.len();
                live.out_local += slot.out_local.len();
                live.out_remote += slot.out_remote.len();
            }
            assert_eq!(full.column_lens(), live);
        }
    }

    /// A master's slot holds none of the `(position, weight)` and consumer
    /// entries its own edge lists already carry, and what it exports is
    /// still the full state a mirror stores.
    #[test]
    fn masters_keep_their_edge_lists_once() {
        let g = gen::power_law(300, 2.0, 5, 17);
        let (_cut, lgs) = build(&g, 3);
        for lg in &lgs {
            // No mirrors in this plan: both columns are the masters' alone.
            let (slots, lens) = lg.full_state_lens();
            assert_eq!(slots, lg.num_masters());
            assert_eq!((lens.in_edges, lens.out_local), (0, 0));
            let in_edges: usize = lg.verts.iter().map(|v| v.in_edges.len()).sum();
            assert_eq!(lens.in_srcs, in_edges);
            for pos in lg.master_positions() {
                let v = &lg.verts[pos as usize];
                let state = lg.full_state(pos).unwrap();
                assert_eq!(state.in_edges_owner, &v.in_edges[..]);
                assert_eq!(state.out_local_owner, &v.out_local[..]);
                let srcs = v.in_edges.iter().map(|&(s, _)| lg.verts[s as usize].vid);
                assert!(state.in_edge_srcs.iter().copied().eq(srcs));
            }
        }
    }

    fn state(tag: u32, edges: usize) -> MasterMeta {
        MasterMeta {
            locations: Locations::new(
                tag,
                [NodeId::new(tag)][..].into(),
                [tag][..].into(),
                Default::default(),
            ),
            in_edges_owner: (0..edges as u32).map(|i| (tag + i, i as f32)).collect(),
            in_edge_srcs: (0..edges as u32).map(|i| Vid::new(tag * 100 + i)).collect(),
            out_local_owner: (0..edges as u32).map(|i| tag * 10 + i).collect(),
            out_remote: (0..edges as u32)
                .map(|i| RemoteEdge {
                    target: Vid::new(tag + i),
                    node: NodeId::new(i),
                    pos: tag * 7 + i,
                })
                .collect(),
        }
    }

    /// Three mirrors (so the store keeps all four lists) with 3, 0 and 2
    /// edges; the empty one sits between the other two in every column.
    fn three_mirrors() -> (EcLocalGraph<u64>, [MasterMeta; 3]) {
        let mut lg: EcLocalGraph<u64> = EcLocalGraph::empty(NodeId::new(9));
        let metas = [state(1, 3), state(2, 0), state(3, 2)];
        for (pos, meta) in metas.iter().enumerate() {
            lg.insert_at(
                pos as u32,
                EcVertex {
                    kind: CopyKind::Mirror,
                    master_node: NodeId::new(0),
                    ..copy(pos as u32)
                },
            );
            lg.set_full_state(pos as u32, meta.view());
        }
        (lg, metas)
    }

    fn copy(vid: u32) -> EcVertex<u64> {
        EcVertex {
            vid: Vid::new(vid),
            kind: CopyKind::Master,
            master_node: NodeId::new(0),
            value: 0u64,
            active: false,
            next_active: false,
            last_activate: false,
            in_edges: Vec::new(),
            out_local: Vec::new(),
            meta: None,
        }
    }

    /// Replacing (longer, shorter, equal), narrowing and extending one
    /// slot's lists leaves every other slot's lists bit-identical.
    #[test]
    fn mutating_one_slot_leaves_the_others_alone() {
        let (mut lg, metas) = three_mirrors();
        let others = |lg: &EcLocalGraph<u64>| {
            assert_eq!(lg.full_state(1).unwrap().to_meta(), metas[1]);
            assert_eq!(lg.full_state(2).unwrap().to_meta(), metas[2]);
            lg.debug_validate();
        };
        others(&lg);
        let before = lg.full_state_lens().1;
        for edges in [5, 1, 1, 0, 4] {
            let next = state(8, edges);
            lg.set_full_state(0, next.view());
            assert_eq!(lg.full_state(0).unwrap().to_meta(), next);
            others(&lg);
        }
        // Only the two replacements that outgrew their run appended.
        assert_eq!(lg.full_state_lens().1.in_edges, before.in_edges + 5 + 4);
        assert_eq!(lg.full_state_lens().0, 3, "replacing reuses the slot");

        // Narrow slot 2's remote out-edges in place, rewriting the survivor.
        let lens = lg.full_state_lens().1;
        lg.retain_out_remote(2, |r| {
            r.pos += 1;
            r.node == NodeId::new(1)
        });
        let kept = RemoteEdge {
            pos: metas[2].out_remote[1].pos + 1,
            ..metas[2].out_remote[1]
        };
        assert_eq!(lg.full_state(2).unwrap().out_remote, [kept]);
        assert_eq!(lg.full_state_lens().1, lens, "narrowing appends nothing");
        assert_eq!(lg.full_state(1).unwrap().to_meta(), metas[1]);

        // Extend the empty slot in the middle: it moves to the tail.
        lg.extend_out_remote(1, &[kept, kept]);
        assert_eq!(lg.full_state(1).unwrap().out_remote, [kept, kept]);
        assert_eq!(lg.full_state(2).unwrap().out_remote, [kept]);
        // Extending the list that already ends the column moves nothing.
        let lens = lg.full_state_lens().1;
        lg.extend_out_remote(1, &[kept]);
        assert_eq!(lg.full_state(1).unwrap().out_remote, [kept, kept, kept]);
        assert_eq!(lg.full_state_lens().1.out_remote, lens.out_remote + 1);
        lg.debug_validate();
    }

    /// Outside an episode a list that fits is overwritten where it is and a
    /// narrowed one shrinks where it is. Inside one the entries a column held
    /// at `begin_episode` are frozen: the same calls write at the tail and
    /// repoint, a list that does not change is not written at all, and a run
    /// the episode itself wrote is overwritten again — so rollback is a
    /// truncation plus the saved spans, and leaves the graph it started from.
    #[test]
    fn an_episode_writes_changed_lists_at_the_tail() {
        let (mut lg, metas) = three_mirrors();
        let loaded = lg.full_state_lens().1;
        lg.set_full_state(2, state(8, 2).view());
        assert!(lg.retain_out_remote(2, |r| r.node == NodeId::new(1)));
        assert!(!lg.retain_out_remote(2, |_| true), "nothing to drop");
        assert_eq!(
            lg.full_state_lens().1,
            loaded,
            "in place outside an episode"
        );

        let before = lg.clone();
        let frozen = |lg: &EcLocalGraph<u64>| {
            let (full, was) = (&lg.full, &before.full);
            full.in_edges.0[..loaded.in_edges] == was.in_edges.0[..]
                && full.in_srcs.0[..loaded.in_srcs] == was.in_srcs.0[..]
                && full.out_local.0[..loaded.out_local] == was.out_local.0[..]
                && full.out_remote.0[..loaded.out_remote] == was.out_remote.0[..]
        };
        lg.begin_episode();
        // Equal lists: nothing written, nothing journaled but the marks.
        let idle = lg.journal_bytes();
        lg.set_full_state(0, metas[0].view());
        lg.set_full_state(2, before.full_state(2).unwrap().to_meta().view());
        assert!(!lg.retain_out_remote(0, |_| true));
        assert_eq!((lg.full_state_lens().1, lg.journal_bytes()), (loaded, idle));

        // Narrowing a frozen run copies what is kept to the tail: the items
        // before the first change unchanged, the rest as `keep` leaves them.
        let all = &metas[0].out_remote;
        assert!(lg.retain_out_remote(0, |r| {
            r.pos += u32::from(r.node == NodeId::new(2));
            r.node != NodeId::new(1)
        }));
        let moved = RemoteEdge {
            pos: all[2].pos + 1,
            ..all[2]
        };
        assert_eq!(lg.full_state(0).unwrap().out_remote, [all[0], moved]);
        let grown = lg.full_state_lens().1;
        assert_eq!(grown.out_remote, loaded.out_remote + 2);
        // A replacement that would fit its frozen run goes to the tail all
        // the same; the run the episode wrote is overwritten where it is.
        let next = state(9, 2);
        lg.set_full_state(0, next.view());
        assert_eq!(lg.full_state(0).unwrap().to_meta(), next);
        let lens = lg.full_state_lens().1;
        assert_eq!(lens.in_edges, loaded.in_edges + 2);
        assert_eq!(lens.out_remote, grown.out_remote);
        lg.set_full_state(0, state(7, 1).view());
        assert_eq!(lg.full_state_lens().1, lens);
        // The empty list in mid-column moves to the tail to grow.
        lg.extend_out_remote(1, &[moved, moved]);
        assert_eq!(lg.full_state(1).unwrap().out_remote, [moved, moved]);
        lg.debug_validate();
        assert!(frozen(&lg) && lg != before && lg.journal_bytes() > idle);

        lg.rollback();
        assert_eq!(lg.journal_bytes(), 0);
        assert!(lg == before && lg.full_state_lens().1 == loaded && frozen(&lg));
        // And in place again.
        lg.set_full_state(0, state(9, 2).view());
        assert_eq!(lg.full_state_lens().1, loaded);
    }

    /// Equality reads lists through their spans: a graph that replaced a
    /// list and back equals one that never did, dead runs or not.
    #[test]
    fn equality_ignores_dead_runs_and_slot_numbers() {
        let (mut lg, metas) = three_mirrors();
        let (pristine, _) = three_mirrors();
        lg.set_full_state(0, state(8, 6).view());
        assert_ne!(lg, pristine);
        lg.set_full_state(0, metas[0].view());
        assert_ne!(lg.full_state_lens(), pristine.full_state_lens());
        assert_eq!(lg, pristine);

        // The same copies given their slots in the opposite order.
        let mut reversed: EcLocalGraph<u64> = EcLocalGraph::empty(NodeId::new(9));
        for pos in 0..3 {
            let v = pristine.verts[pos].clone();
            reversed.insert_at(pos as u32, EcVertex { meta: None, ..v });
        }
        for pos in (0..3).rev() {
            reversed.set_full_state(pos, metas[pos as usize].view());
        }
        assert_ne!(reversed.verts[0].meta, pristine.verts[0].meta);
        assert_eq!(reversed, pristine);
    }

    /// A promoted mirror gives up its owner-local lists; as a master it
    /// exports its own edge lists in their place, and importing full state
    /// into a master stores neither list again.
    #[test]
    fn a_master_slot_stores_no_owner_lists() {
        let (mut lg, metas) = three_mirrors();
        lg.verts[0].kind = CopyKind::Master;
        let (in_edges, out_local) = lg.take_owner_lists(0);
        assert_eq!(in_edges, metas[0].in_edges_owner);
        assert_eq!(out_local, metas[0].out_local_owner);
        let exported = lg.full_state(0).unwrap();
        assert!(exported.in_edges_owner.is_empty() && exported.out_local_owner.is_empty());
        assert_eq!(exported.in_edge_srcs, &metas[0].in_edge_srcs[..]);

        lg.verts[0].in_edges = vec![(2, 0.5)];
        let lens = lg.full_state_lens().1;
        lg.set_full_state(0, state(4, 9).view());
        let grown = lg.full_state_lens().1;
        assert_eq!(
            (grown.in_edges, grown.out_local),
            (lens.in_edges, lens.out_local)
        );
        assert_eq!(lg.full_state(0).unwrap().in_edges_owner, [(2, 0.5)]);
        assert_eq!(lg.full_state(0).unwrap().in_edge_srcs.len(), 9);
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
        let mut plan = FtPlan::none(3);
        plan.mirror[2] = vec![other];
        plan.extra_replicas[2] = vec![other];
        let degrees = Degrees::of(&g);
        let lgs = build_edge_cut_graphs(&g, &cut, &plan, &Count, &degrees);
        let lg = &lgs[other.index()];
        let pos = lg.position(v2).expect("extra replica exists");
        assert_eq!(lg.verts[pos as usize].kind, CopyKind::Mirror);
        assert!(lg.verts[pos as usize].out_local.is_empty());
    }

    #[test]
    fn insert_at_reproduces_layout() {
        let mut lg: EcLocalGraph<u64> = EcLocalGraph::empty(NodeId::new(0));
        let mk = copy;
        lg.insert_at(2, mk(20));
        lg.insert_at(0, mk(5));
        lg.insert_at(1, mk(11));
        assert_eq!(lg.position(Vid::new(20)), Some(2));
        assert_eq!(lg.position(Vid::new(5)), Some(0));
        assert_eq!(lg.len(), 3);
    }

    #[test]
    #[should_panic(expected = "already holds")]
    fn insert_at_conflict_panics() {
        let mut lg: EcLocalGraph<u64> = EcLocalGraph::empty(NodeId::new(0));
        let mk = copy;
        lg.insert_at(0, mk(1));
        lg.insert_at(0, mk(2));
    }
}
