//! Vertex-cut local graphs (the PowerLyra runtime representation).

use imitator_cluster::NodeId;
use imitator_graph::{Graph, PosIndex, Vid};
use imitator_metrics::MemSize;
use imitator_partition::VertexCut;

use crate::ecut::CopyKind;
use crate::episode::VcJournal;
use crate::ftplan::FtPlan;
use crate::full_state::{EdgeLists, FullState, FullStateBatches, FullStateRef, SlotId, StoreLens};
use crate::load::{collect_exact, copy_kind, per_node, Layout};
use crate::locations::{Locations, LocationsRef};
use crate::program::{Degrees, VertexProgram};

/// One local vertex copy in a vertex-cut partition.
#[derive(Debug, Clone)]
pub struct VcVertex<V> {
    /// Global vertex ID.
    pub vid: Vid,
    /// Role of this copy.
    pub kind: CopyKind,
    /// The node mastering this vertex.
    pub master_node: NodeId,
    /// Current committed value.
    pub value: V,
    /// Where the graph's store keeps this copy's full state (masters and
    /// mirrors): read it with [`VcLocalGraph::locations`], write it with
    /// [`VcLocalGraph::set_locations`]. Unlike edge-cut, vertex-cut full
    /// state carries **no edges**: those are persisted to edge-ckpt files on
    /// the DFS during loading (§4.3), because no single node holds all of a
    /// vertex's edges.
    pub meta: Option<SlotId>,
}

impl<V> VcVertex<V> {
    /// A copy without full state: what [`VcLocalGraph::insert_at`] and
    /// [`VcLocalGraph::insert_or_position`] take.
    pub fn new(vid: Vid, kind: CopyKind, master_node: NodeId, value: V) -> Self {
        VcVertex {
            vid,
            kind,
            master_node,
            value,
            meta: None,
        }
    }

    /// Whether this copy is the authoritative master.
    pub fn is_master(&self) -> bool {
        self.kind == CopyKind::Master
    }
}

/// Copies are equal when their own fields are and both or neither carry
/// full state; which slot it is in is the graph's business, and
/// [`VcLocalGraph`]'s equality compares the tables themselves.
impl<V: PartialEq> PartialEq for VcVertex<V> {
    fn eq(&self, other: &Self) -> bool {
        self.vid == other.vid
            && self.kind == other.kind
            && self.master_node == other.master_node
            && self.value == other.value
            && self.meta.is_some() == other.meta.is_some()
    }
}

/// One locally owned edge, endpoints as local positions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VcEdge {
    /// Local position of the source copy.
    pub src: u32,
    /// Local position of the target copy.
    pub dst: u32,
    /// Edge weight.
    pub weight: f32,
}

impl MemSize for VcEdge {
    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<VcEdge>()
    }

    fn heap_bytes(&self) -> usize {
        0
    }
}

/// One node's local partition under vertex-cut: the edges it owns plus a
/// copy of every adjacent vertex, and the masters' and mirrors' location
/// tables in the same columnar store edge-cut full state lives in (see
/// [`crate::full_state`]) — heads and table words, no edge rows.
///
/// The fields are public; a recovery attempt that may have to be undone
/// changes existing copies through `set_kind`, `set_master_node`,
/// `edit_locations` and `set_locations`, which journal what they change while
/// an episode is open ([`crate::Episode`]), and otherwise only appends.
#[derive(Debug, Clone)]
pub struct VcLocalGraph<V> {
    /// The hosting node.
    pub node: NodeId,
    /// All local copies, indexed by position.
    pub verts: Vec<VcVertex<V>>,
    /// Global-ID → position index.
    pub index: PosIndex,
    /// Locally owned edges. Recovery only ever appends to them.
    pub edges: Vec<VcEdge>,
    /// Full state of the masters and mirrors in `verts`.
    pub(crate) full: FullState,
    /// What the open recovery episode has changed, if one is open (see
    /// [`crate::episode`]).
    pub(crate) journal: Option<Box<VcJournal>>,
}

/// Graphs are equal when their copies, their full state, index and edges
/// are; slot numbering and an open episode's journal do not count.
impl<V: PartialEq> PartialEq for VcLocalGraph<V> {
    fn eq(&self, other: &Self) -> bool {
        self.node == other.node
            && self.verts == other.verts
            && self.index == other.index
            && self.edges == other.edges
            && (0..self.verts.len() as u32).all(|pos| self.locations(pos) == other.locations(pos))
    }
}

impl<V> VcLocalGraph<V> {
    /// Creates an empty local graph for `node`.
    pub fn empty(node: NodeId) -> Self {
        VcLocalGraph {
            node,
            verts: Vec::new(),
            index: PosIndex::new(),
            edges: Vec::new(),
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

    /// Whether the partition holds no vertices.
    pub fn is_empty(&self) -> bool {
        self.verts.is_empty()
    }

    /// Number of local masters.
    pub fn num_masters(&self) -> usize {
        self.verts.iter().filter(|v| v.is_master()).count()
    }

    /// Number of local replica copies (incl. mirrors).
    pub fn num_replicas(&self) -> usize {
        self.verts.len() - self.num_masters()
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

    /// Makes `tables` the full state of the copy at `pos`, in a new slot if
    /// it had none.
    pub fn set_locations(&mut self, pos: u32, tables: LocationsRef<'_>) {
        match self.verts[pos as usize].meta {
            Some(slot) => self.full.set_locations(slot, tables),
            None => {
                self.touch_copy(pos);
                let slot = self.full.push(FullStateRef::tables(tables));
                self.verts[pos as usize].meta = Some(slot);
            }
        }
    }

    /// What the full-state store holds, tables no slot points at any more
    /// included.
    pub fn full_state_lens(&self) -> StoreLens {
        self.full.lens()
    }

    /// Inserts `vertex` at `pos`, growing the array with placeholder holes
    /// as needed (position-addressed Rebirth reconstruction).
    ///
    /// # Panics
    ///
    /// Panics if `pos` already holds a different vertex.
    pub fn insert_at(&mut self, pos: u32, vertex: VcVertex<V>)
    where
        V: Clone,
    {
        let p = pos as usize;
        while self.verts.len() <= p {
            let (hole, value) = (Vid::new(u32::MAX), vertex.value.clone());
            let hole = VcVertex::new(hole, CopyKind::Replica, self.node, value);
            self.verts.push(hole);
        }
        assert!(
            self.verts[p].vid == Vid::new(u32::MAX) || self.verts[p].vid == vertex.vid,
            "position {pos} already holds {}",
            self.verts[p].vid
        );
        self.index.insert(vertex.vid, pos);
        self.verts[p] = vertex;
    }

    /// Appends a copy of `vertex` if absent, returning its position.
    pub fn insert_or_position(&mut self, vertex: VcVertex<V>) -> u32 {
        if let Some(pos) = self.position(vertex.vid) {
            return pos;
        }
        let pos = self.verts.len() as u32;
        self.index.insert(vertex.vid, pos);
        self.verts.push(vertex);
        pos
    }

    /// Checks structural invariants: the index agrees with the array, no
    /// run of the store reaches past its column, every master is this node's
    /// and carries full state, and edge endpoints are in range.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let ensure =
            |ok: bool, violation: &str| ok.then_some(()).ok_or_else(|| violation.to_string());
        ensure(self.index.len() == self.verts.len(), "index size mismatch")?;
        self.full.validate()?;
        for (i, v) in self.verts.iter().enumerate() {
            ensure(self.index.get(v.vid) == Some(i as u32), "index mismatch")?;
            let slot = v.meta.map(SlotId::index);
            if slot.is_some_and(|slot| slot >= self.full.len()) {
                return Err(format!("full state of {} is in no slot", v.vid));
            }
            if v.is_master() && (slot.is_none() || v.master_node != self.node) {
                return Err(format!("master {} lacks full state or is not ours", v.vid));
            }
        }
        let n = self.verts.len();
        let inside = |e: &VcEdge| (e.src as usize) < n && (e.dst as usize) < n;
        ensure(self.edges.iter().all(inside), "edge endpoint out of range")
    }

    /// [`VcLocalGraph::validate`] as an assertion (test/debug aid).
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

/// A vertex-cut copy's full state is its location tables: a batch carries
/// those alone, and which edge lists a slot carries says nothing here.
impl<V> FullStateBatches for VcLocalGraph<V> {
    fn export_full_states(&self, records: &[(u32, EdgeLists)]) -> (FullState, Vec<EdgeLists>) {
        let tables = |pos: u32| {
            let tables = self.locations(pos);
            tables.unwrap_or_else(|| panic!("copy at {pos} carries no full state"))
        };
        let states = records.iter().map(|r| FullStateRef::tables(tables(r.0)));
        (FullState::of(states), Vec::new())
    }

    fn adopt_full_states(&mut self, batches: &[(&[u32], &FullState, &[EdgeLists])]) {
        for &(positions, batch, _) in batches {
            assert_eq!(positions.len(), batch.len(), "one position per slot");
            for (i, &pos) in positions.iter().enumerate() {
                self.set_locations(pos, batch.nth(i).locations);
            }
        }
    }

    fn changed_lists(&self, _pos: u32) -> EdgeLists {
        EdgeLists::NONE
    }
}

impl<V: MemSize> MemSize for VcLocalGraph<V> {
    fn mem_bytes(&self) -> usize {
        let verts: usize = std::mem::size_of::<Vec<VcVertex<V>>>()
            + self.verts.capacity() * std::mem::size_of::<VcVertex<V>>()
            + self
                .verts
                .iter()
                .map(|v| v.value.heap_bytes())
                .sum::<usize>();
        let index = self.index.mem_bytes();
        let edges = std::mem::size_of::<Vec<VcEdge>>()
            + self.edges.capacity() * std::mem::size_of::<VcEdge>();
        std::mem::size_of::<NodeId>() + verts + index + edges + self.full.mem_bytes()
    }
}

/// Builds every node's [`VcLocalGraph`] from a vertex-cut placement and an
/// FT plan — copies for every adjacent vertex, locally owned edges, and
/// full-state metadata on masters and mirrors. Once the copy positions are
/// known, each node's graph is built on a thread of its own.
///
/// # Panics
///
/// Panics if the plan's vertex count disagrees with the graph, or a mirror
/// is placed on a node without a copy.
pub fn build_vertex_cut_graphs<P: VertexProgram>(
    g: &Graph,
    cut: &VertexCut,
    plan: &FtPlan,
    prog: &P,
    degrees: &Degrees,
) -> Vec<VcLocalGraph<P::Value>> {
    assert_eq!(plan.num_vertices(), g.num_vertices(), "plan size mismatch");
    let parts = cut.num_parts();
    let layout = Layout::new(parts, plan, |v| (cut.master(v), cut.replica_parts(v)));

    // Node `p`'s graph, without its position index. Allocation order as in
    // the edge-cut loader: copies and edges, then the store — sized first,
    // the masters' tables before the mirrors'.
    let node_graph = |p: usize| {
        let node = NodeId::from_index(p);
        let at = &layout.pos_maps[p];
        let mut verts: Vec<VcVertex<P::Value>> = layout.copies[p]
            .iter()
            .map(|&v| {
                let owner = NodeId::from_index(cut.master(v));
                let kind = copy_kind(node, owner, plan.mirrors(v));
                VcVertex::new(v, kind, owner, prog.init(v, degrees))
            })
            .collect();
        let owned = || {
            let placed = g.edges().iter().zip(cut.edge_owner());
            placed.filter(|&(_, &owner)| owner as usize == p)
        };
        let edges = collect_exact(
            owned().count(),
            owned().map(|(e, _)| VcEdge {
                src: at.at(e.src),
                dst: at.at(e.dst),
                weight: e.weight,
            }),
        );
        let mut room = StoreLens::default();
        for vert in verts.iter().filter(|vert| vert.kind != CopyKind::Replica) {
            room.slots += 1;
            room.words += Layout::table_words(vert.vid, cut.replica_parts(vert.vid), plan);
        }
        let mut full = FullState::default();
        full.reserve_exact(room);
        for kind in [CopyKind::Master, CopyKind::Mirror] {
            for vert in verts.iter_mut().filter(|vert| vert.kind == kind) {
                let (v, slot) = (vert.vid, SlotId::from_index(full.len()));
                let replicas = cut.replica_parts(v);
                let head = layout.push_tables(v, cut.master(v), replicas, plan, &mut full.words);
                full.heads.push(head);
                vert.meta = Some(slot);
            }
        }
        assert_eq!(full.lens(), room, "tables miscounted on node {p}");
        VcLocalGraph {
            node,
            verts,
            index: PosIndex::new(),
            edges,
            full,
            journal: None,
        }
    };

    let mut graphs = per_node(vec![(); parts], |p, ()| node_graph(p));
    for (lg, index) in graphs.iter_mut().zip(layout.pos_maps) {
        lg.index = index;
    }
    graphs
}

#[cfg(test)]
mod tests {
    use super::*;
    use imitator_graph::gen;
    use imitator_partition::{RandomVertexCut, VertexCutPartitioner};

    struct Noop;
    impl VertexProgram for Noop {
        type Value = u32;
        type Accum = u32;
        fn init(&self, vid: Vid, _d: &Degrees) -> u32 {
            vid.raw()
        }
        fn gather(&self, _w: f32, src: &u32) -> u32 {
            *src
        }
        fn combine(&self, a: u32, b: u32) -> u32 {
            a.min(b)
        }
        fn apply(&self, _v: Vid, old: &u32, _acc: Option<u32>, _d: &Degrees) -> u32 {
            *old
        }
        fn scatter(&self, _v: Vid, _old: &u32, _new: &u32) -> bool {
            false
        }
    }

    #[test]
    fn all_edges_land_once() {
        let g = gen::power_law(500, 2.0, 6, 31);
        let cut = RandomVertexCut.partition(&g, 5);
        let plan = FtPlan::none(g.num_vertices());
        let degrees = Degrees::of(&g);
        let lgs = build_vertex_cut_graphs(&g, &cut, &plan, &Noop, &degrees);
        let total: usize = lgs.iter().map(|lg| lg.edges.len()).sum();
        assert_eq!(total, g.num_edges());
        for lg in &lgs {
            lg.debug_validate();
        }
    }

    #[test]
    fn masters_unique_and_replicas_match_cut() {
        let g = gen::power_law(400, 2.0, 6, 33);
        let cut = RandomVertexCut.partition(&g, 4);
        let plan = FtPlan::none(g.num_vertices());
        let degrees = Degrees::of(&g);
        let lgs = build_vertex_cut_graphs(&g, &cut, &plan, &Noop, &degrees);
        let masters: usize = lgs.iter().map(VcLocalGraph::num_masters).sum();
        assert_eq!(masters, g.num_vertices());
        let copies: usize = lgs.iter().map(VcLocalGraph::len).sum();
        let expected: usize = g.vertices().map(|v| 1 + cut.replica_parts(v).len()).sum();
        assert_eq!(copies, expected);
    }

    #[test]
    fn edge_endpoints_present_locally() {
        let g = gen::power_law(300, 2.0, 5, 35);
        let cut = RandomVertexCut.partition(&g, 6);
        let plan = FtPlan::none(g.num_vertices());
        let degrees = Degrees::of(&g);
        let lgs = build_vertex_cut_graphs(&g, &cut, &plan, &Noop, &degrees);
        for lg in &lgs {
            for e in &lg.edges {
                assert!((e.src as usize) < lg.verts.len());
                assert!((e.dst as usize) < lg.verts.len());
            }
        }
    }

    #[test]
    fn insert_or_position_is_idempotent() {
        let mut lg: VcLocalGraph<u32> = VcLocalGraph::empty(NodeId::new(0));
        let mk = |vid: u32| VcVertex::new(Vid::new(vid), CopyKind::Replica, NodeId::new(1), 0);
        let p1 = lg.insert_or_position(mk(5));
        let p2 = lg.insert_or_position(mk(5));
        assert_eq!(p1, p2);
        assert_eq!(lg.len(), 1);
    }
}
