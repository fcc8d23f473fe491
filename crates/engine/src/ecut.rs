//! Edge-cut local graphs (the Cyclops runtime representation).

use imitator_cluster::NodeId;
use imitator_graph::{Csr, Graph, PosIndex, Vid};
use imitator_metrics::MemSize;
use imitator_partition::EdgeCut;

use crate::ftplan::FtPlan;
use crate::inline_list::InlineList;
use crate::load::{build_per_node, collect_exact, copy_kind, Layout};
use crate::program::{Degrees, VertexProgram};

/// The role of a local vertex copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CopyKind {
    /// The authoritative copy; co-located with all of the vertex's edges.
    Master,
    /// A computation replica providing local read access to the value.
    Replica,
    /// A full-state replica (§4.2) able to recover its master — carries
    /// [`MasterMeta`]. Extra FT replicas (§4.1) are always mirrors.
    Mirror,
}

/// An out-edge whose consumer (target master) lives on another node.
///
/// The position is the target's array index on its owner — the *enhanced
/// edge information* of §5.1.2 that makes reconstruction position-addressed
/// and lock-free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RemoteEdge {
    /// The target vertex.
    pub target: Vid,
    /// The node mastering the target.
    pub node: NodeId,
    /// The target's array position on that node.
    pub pos: u32,
}

/// The full state a master shares with its mirrors (§4.2).
///
/// Static fields, replicated once during graph loading: everything needed to
/// rebuild the master (and any of its replicas) *at the same array
/// positions* on a replacement node, plus the replica-location table that
/// recovery consults to find what was lost.
#[derive(Debug, Clone, PartialEq)]
pub struct MasterMeta {
    /// The master's array position on its owner node.
    pub master_pos: u32,
    /// Every node holding a replica of this vertex (computation replicas,
    /// mirrors, and extra FT replicas), excluding the owner. Sorted.
    pub replica_nodes: InlineList<NodeId>,
    /// The array position of the replica copy on each node of
    /// `replica_nodes` (parallel vector) — position-addressed recovery of
    /// lost replicas needs the crashed node's layout (§5.1.2).
    pub replica_positions: InlineList<u32>,
    /// The mirror nodes, ordered by mirror ID: on failure the surviving
    /// mirror with the lowest ID recovers the master without any election
    /// traffic (§5.3.1).
    pub mirror_nodes: InlineList<NodeId>,
    /// The master's in-edges in owner-local `(source position, weight)`
    /// form (edge-cut replicates edges into the mirror's full state, §4.3).
    pub in_edges_owner: Vec<(u32, f32)>,
    /// Global source IDs of the in-edges (parallel to `in_edges_owner`):
    /// Migration rebuilds the promoted master's edges on a *different* node,
    /// where the owner-local positions mean nothing (§5.2.1).
    pub in_edge_srcs: Vec<Vid>,
    /// Owner-local positions of out-neighbours mastered on the owner.
    pub out_local_owner: Vec<u32>,
    /// Out-edges whose consumer is mastered remotely; grouped by node these
    /// give each replica's local out-edge lists on that node.
    pub out_remote: Vec<RemoteEdge>,
}

impl MasterMeta {
    /// Owner-local positions this vertex's replica on `node` feeds
    /// (used to rebuild a replica's `out_local` during recovery).
    pub fn replica_out_local_on(&self, node: NodeId) -> Vec<u32> {
        self.out_remote
            .iter()
            .filter(|r| r.node == node)
            .map(|r| r.pos)
            .collect()
    }

    /// The recorded position of this vertex's replica copy on `node`.
    pub fn replica_position_on(&self, node: NodeId) -> Option<u32> {
        self.replica_nodes
            .iter()
            .position(|&n| n == node)
            .map(|i| self.replica_positions[i])
    }

    /// Removes `node` from the replica/mirror location tables (it crashed).
    pub fn purge_node(&mut self, node: NodeId) {
        if let Some(i) = self.replica_nodes.iter().position(|&n| n == node) {
            self.replica_nodes.remove(i);
            self.replica_positions.remove(i);
        }
        self.mirror_nodes.retain(|&n| n != node);
    }

    /// Registers (or re-registers) a replica copy of this vertex at
    /// `node`/`pos`, keeping `replica_nodes` sorted.
    pub fn register_replica(&mut self, node: NodeId, pos: u32) {
        if let Some(i) = self.replica_nodes.iter().position(|&n| n == node) {
            self.replica_positions[i] = pos;
            return;
        }
        let i = self.replica_nodes.partition_point(|&n| n < node);
        self.replica_nodes.insert(i, node);
        self.replica_positions.insert(i, pos);
    }
}

impl MemSize for MasterMeta {
    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<MasterMeta>()
            + self.replica_nodes.heap_bytes()
            + self.replica_positions.heap_bytes()
            + self.mirror_nodes.heap_bytes()
            + self.in_edges_owner.capacity() * std::mem::size_of::<(u32, f32)>()
            + self.in_edge_srcs.capacity() * std::mem::size_of::<Vid>()
            + self.out_local_owner.capacity() * std::mem::size_of::<u32>()
            + self.out_remote.capacity() * std::mem::size_of::<RemoteEdge>()
    }
}

/// One local vertex copy in an edge-cut partition.
#[derive(Debug, Clone, PartialEq)]
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
    /// Full state for recovery (masters and mirrors).
    pub meta: Option<Box<MasterMeta>>,
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

impl<V: MemSize> MemSize for EcVertex<V> {
    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<EcVertex<V>>()
            + self.value.heap_bytes()
            + self.in_edges.capacity() * std::mem::size_of::<(u32, f32)>()
            + self.out_local.capacity() * std::mem::size_of::<u32>()
            + self.meta.as_ref().map_or(0, |m| m.mem_bytes())
    }
}

/// One node's local partition under edge-cut.
///
/// Vertices live in a position-stable array: recovery reproduces a crashed
/// node's array layout exactly, so edges (stored as positions) stay valid —
/// the paper's lock-free, parallel reconstruction (§5.1.2).
#[derive(Debug, Clone, PartialEq)]
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
}

impl<V> EcLocalGraph<V> {
    /// Creates an empty local graph for `node`.
    pub fn empty(node: NodeId) -> Self {
        EcLocalGraph {
            node,
            verts: Vec::new(),
            index: PosIndex::new(),
            active_frontier: Vec::new(),
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

    /// Checks structural invariants (test/debug aid): index agrees with the
    /// array, no placeholder holes remain, and edge positions are in range.
    ///
    /// # Panics
    ///
    /// Panics on any violation.
    pub fn debug_validate(&self) {
        for (i, v) in self.verts.iter().enumerate() {
            assert_ne!(v.vid, Vid::new(u32::MAX), "hole at position {i}");
            assert_eq!(
                self.index.get(v.vid),
                Some(i as u32),
                "index mismatch at {i}"
            );
            for &(src, _) in &v.in_edges {
                assert!(
                    (src as usize) < self.verts.len(),
                    "in-edge src out of range"
                );
            }
            for &t in &v.out_local {
                assert!(
                    (t as usize) < self.verts.len(),
                    "out-edge target out of range"
                );
                assert!(
                    self.verts[t as usize].is_master(),
                    "activation target at {t} is not a master"
                );
            }
            if v.is_master() {
                assert!(v.meta.is_some(), "master {} lacks full state", v.vid);
            }
        }
        assert_eq!(self.index.len(), self.verts.len(), "index size mismatch");
        let expected: Vec<u32> = self
            .verts
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_master() && v.active)
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(
            self.active_frontier, expected,
            "active frontier out of sync with active bits"
        );
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
        std::mem::size_of::<NodeId>() + verts + index + frontier
    }
}

/// Builds every node's [`EcLocalGraph`] from a partitioning and an FT plan.
///
/// This performs, deterministically, what the distributed loading phase of
/// §4 performs with message exchanges: replica creation, mirror designation
/// with full-state replication, extra-FT-replica creation, and the
/// position/location exchange that enables position-addressed recovery.
/// Once the copy positions are known, each node's graph is built on a
/// thread of its own from the input graph's CSR views, every per-vertex
/// list allocated once at its final length.
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
    let mut graphs = build_per_node(parts, |p| loader.node_graph(p));
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

impl<P: VertexProgram> EcLoader<'_, P> {
    /// Node `p`'s graph, without its position index (the caller moves the
    /// layout's in). Allocates in three passes — the edge lists of every
    /// copy, then the masters' full state, then the mirrors' — so that what
    /// a superstep reads is dense in the heap and laid out the same with
    /// and without fault tolerance, with the mirrors' cold copies behind it
    /// (DESIGN.md, "Load path and heap layout").
    fn node_graph(&self, p: usize) -> EcLocalGraph<P::Value> {
        let node = NodeId::from_index(p);
        let mut verts: Vec<EcVertex<P::Value>> = self.layout.copies[p]
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
                    meta: None,
                }
            })
            .collect();
        for kind in [CopyKind::Master, CopyKind::Mirror] {
            for vert in verts.iter_mut().filter(|vert| vert.kind == kind) {
                vert.meta = Some(Box::new(self.full_state(vert.vid)));
            }
        }
        let mut lg = EcLocalGraph {
            node,
            verts,
            index: PosIndex::new(),
            active_frontier: Vec::new(),
        };
        lg.rebuild_active_frontier();
        lg.active_frontier.shrink_to_fit();
        lg
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

    /// The full state `v`'s master shares with its mirrors.
    fn full_state(&self, v: Vid) -> MasterMeta {
        let owner = self.cut.owner(v);
        let (replica_nodes, replica_positions, mirror_nodes) =
            self.layout
                .locations(v, self.cut.replica_parts(v), self.plan);
        let remote = || {
            let targets = self.out_csr.neighbor_slice(v).iter();
            targets.filter(move |&&t| self.cut.owner(t) != owner)
        };
        MasterMeta {
            master_pos: self.layout.pos_maps[owner].at(v),
            replica_nodes,
            replica_positions,
            mirror_nodes,
            in_edges_owner: self.in_edges_at(v, owner),
            in_edge_srcs: self.in_csr.neighbor_slice(v).to_vec(),
            out_local_owner: self.out_local_at(v, owner),
            out_remote: collect_exact(
                remote().count(),
                remote().map(|&target| {
                    let consumer = self.cut.owner(target);
                    RemoteEdge {
                        target,
                        node: NodeId::from_index(consumer),
                        pos: self.layout.pos_maps[consumer].at(target),
                    }
                }),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            for v in lg.verts.iter().filter(|v| v.is_master()) {
                let meta = v.meta.as_ref().unwrap();
                assert_eq!(meta.master_pos, lg.position(v.vid).unwrap());
                for r in &meta.out_remote {
                    let remote = &lgs[r.node.index()];
                    assert_eq!(remote.position(r.target), Some(r.pos));
                    assert!(remote.verts[r.pos as usize].is_master());
                }
                // replica_nodes point at real copies
                for n in &meta.replica_nodes {
                    assert!(lgs[n.index()].position(v.vid).is_some());
                    assert_ne!(*n, v.master_node);
                }
                assert_eq!(cut.owner(v.vid), v.master_node.index());
            }
        }
    }

    #[test]
    fn mirrors_carry_full_state() {
        let g = gen::power_law(300, 2.0, 5, 13);
        let cut = HashEdgeCut.partition(&g, 3);
        let mut plan = FtPlan::none(g.num_vertices());
        // mirror every vertex that has a replica, on its first replica node
        for v in g.vertices() {
            if let Some(&first) = cut.replica_parts(v).first() {
                plan.mirror[v.index()] = vec![NodeId::new(first)];
            }
        }
        let degrees = Degrees::of(&g);
        let lgs = build_edge_cut_graphs(&g, &cut, &plan, &Count, &degrees);
        let mut mirrors = 0;
        for lg in &lgs {
            for v in &lg.verts {
                if v.kind == CopyKind::Mirror {
                    mirrors += 1;
                    let meta = v.meta.as_ref().unwrap();
                    // mirror's meta equals the master's meta
                    let owner = &lgs[v.master_node.index()];
                    let mpos = owner.position(v.vid).unwrap() as usize;
                    assert_eq!(owner.verts[mpos].meta.as_deref(), Some(meta.as_ref()));
                }
            }
        }
        assert!(mirrors > 0);
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
        let mk = |vid: u32| EcVertex {
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
        };
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
        let mk = |vid: u32| EcVertex {
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
        };
        lg.insert_at(0, mk(1));
        lg.insert_at(0, mk(2));
    }
}
