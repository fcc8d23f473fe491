//! The loaders against the builders they replaced. `reference_*` are the
//! single-threaded, push-as-you-go builders the library shipped before the
//! load path was rebuilt, kept here as the specification (verbatim but for
//! the location tables' conversion to `Locations`, for a remote out-edge
//! naming its other end by node and position alone, and for the edge-cut one
//! handing back each copy's edge lists and full state as the owned `Vec`s
//! and `MasterMeta` it builds instead of hanging them onto the vertex): the
//! library's builders must return graphs equal to theirs — every copy, every
//! edge list item for item in the same order, and the full state every
//! master and mirror exports — on any graph, partitioning and plan, and must
//! leave no slack behind.

use proptest::prelude::*;

use imitator_cluster::NodeId;
use imitator_engine::{
    build_edge_cut_graphs, build_vertex_cut_graphs, CopyKind, Degrees, EcLocalGraph, EcVertex,
    FtPlan, FullState, FullStateRef, InEdge, InEdges, Locations, MasterMeta, RemoteEdge, VcEdge,
    VcLocalGraph, VcVertex, VertexProgram,
};
use imitator_graph::{gen, Edge, Graph, PosIndex, Ragged, Vid};
use imitator_partition::{
    EdgeCut, EdgeCutPartitioner, HashEdgeCut, HybridVertexCut, RandomVertexCut, VertexCut,
    VertexCutPartitioner,
};

/// A vertex's location tables as both reference builders derive them: the
/// replica nodes (the partitioning's and the plan's extra ones, sorted), the
/// copy's position on each, and the plan's mirrors, each holding a copy.
fn reference_locations(
    v: Vid,
    owner: usize,
    replica_parts: &[u32],
    plan: &FtPlan,
    pos_maps: &[PosIndex],
) -> Locations {
    let mut replica_nodes: Vec<NodeId> = replica_parts.iter().map(|&p| NodeId::new(p)).collect();
    for &extra in plan.extras(v) {
        if !replica_nodes.contains(&extra) {
            replica_nodes.push(extra);
        }
    }
    replica_nodes.sort_unstable();
    let replica_positions: Vec<u32> = replica_nodes
        .iter()
        .map(|n| pos_maps[n.index()].at(v))
        .collect();
    for m in plan.mirrors(v) {
        assert!(
            replica_nodes.contains(m),
            "mirror of {v} on {m} has no copy there"
        );
    }
    let master_pos = pos_maps[owner].at(v);
    Locations::new(
        master_pos,
        &replica_nodes,
        &replica_positions,
        plan.mirrors(v),
    )
}

/// One node as the reference builds it: its copies, none of them given an
/// edge list or a slot, and per position the in-edges, consumers and full
/// state that copy holds.
struct ReferenceEc<V> {
    lg: EcLocalGraph<V>,
    in_edges: Vec<Vec<(u32, f32)>>,
    out_local: Vec<Vec<u32>>,
    metas: Vec<Option<MasterMeta>>,
}

/// The edge-cut builder as of PR 12.
#[allow(clippy::needless_range_loop)] // loops pair the index with Vid::from_index(i)
fn reference_edge_cut_graphs<P: VertexProgram>(
    g: &Graph,
    cut: &EdgeCut,
    plan: &FtPlan,
    prog: &P,
    degrees: &Degrees,
) -> Vec<ReferenceEc<P::Value>> {
    assert_eq!(plan.num_vertices(), g.num_vertices(), "plan size mismatch");
    let parts = cut.num_parts();
    let n = g.num_vertices();

    // 1. Copy sets per node: masters ∪ computation replicas ∪ extra FT replicas.
    let mut copies: Vec<Vec<Vid>> = vec![Vec::new(); parts];
    for i in 0..n {
        let v = Vid::from_index(i);
        copies[cut.owner(v)].push(v);
        for &p in cut.replica_parts(v) {
            copies[p as usize].push(v);
        }
        for &node in plan.extras(v) {
            copies[node.index()].push(v);
        }
    }

    // 2. Deterministic positions: sorted by vid on each node.
    let mut pos_maps: Vec<PosIndex> = Vec::with_capacity(parts);
    for list in &mut copies {
        list.sort_unstable();
        list.dedup();
        pos_maps.push(PosIndex::from_sorted_vids(list));
    }

    // 3. Vertex entries.
    let mut graphs: Vec<EcLocalGraph<P::Value>> = (0..parts)
        .map(|p| {
            let node = NodeId::from_index(p);
            let verts = copies[p]
                .iter()
                .map(|&v| {
                    let owner = NodeId::from_index(cut.owner(v));
                    let kind = if owner == node {
                        CopyKind::Master
                    } else if plan.mirrors(v).contains(&node) {
                        CopyKind::Mirror
                    } else {
                        CopyKind::Replica
                    };
                    let mut copy = EcVertex::new(v, kind, owner, prog.init(v, degrees));
                    copy.active = kind == CopyKind::Master && prog.initially_active(v);
                    copy
                })
                .collect();
            let mut lg = EcLocalGraph::empty(node);
            lg.verts = verts;
            lg.index = pos_maps[p].clone();
            lg
        })
        .collect();
    let mut metas: Vec<Vec<Option<MasterMeta>>> =
        graphs.iter().map(|lg| vec![None; lg.len()]).collect();
    let mut in_edges: Vec<Vec<Vec<(u32, f32)>>> =
        graphs.iter().map(|lg| vec![Vec::new(); lg.len()]).collect();
    let mut out_local: Vec<Vec<Vec<u32>>> =
        graphs.iter().map(|lg| vec![Vec::new(); lg.len()]).collect();

    // 4. Edges: every edge lives on the consumer's owner; the producer's
    //    local copy there feeds the consumer.
    for e in g.edges() {
        let p = cut.owner(e.dst);
        let dst_pos = pos_maps[p].at(e.dst) as usize;
        let src_pos = pos_maps[p].at(e.src);
        in_edges[p][dst_pos].push((src_pos, e.weight));
        out_local[p][src_pos as usize].push(dst_pos as u32);
    }

    // 5. Full state (masters + mirrors). One pass over edges collects each
    //    vertex's remote out-edges (O(|E|), not O(|V|·|E|)).
    let mut out_remote_by_src: Vec<Vec<RemoteEdge>> = vec![Vec::new(); n];
    for e in g.edges() {
        if cut.owner(e.dst) != cut.owner(e.src) {
            out_remote_by_src[e.src.index()].push(RemoteEdge { consumer: e.dst });
        }
    }
    for i in 0..n {
        let v = Vid::from_index(i);
        let owner = cut.owner(v);
        let master_pos = pos_maps[owner].at(v);
        let locations = reference_locations(v, owner, cut.replica_parts(v), plan, &pos_maps);
        let mirror_nodes = plan.mirrors(v);
        let master_in_edges = &in_edges[owner][master_pos as usize];
        let by_source = master_in_edges.iter().map(|&(src, weight)| InEdge {
            weight,
            src: graphs[owner].verts[src as usize].vid,
        });
        let out_remote = std::mem::take(&mut out_remote_by_src[i]);
        let meta = MasterMeta {
            locations,
            in_edges: by_source.collect(),
            out_local_owner: out_local[owner][master_pos as usize].clone(),
            out_remote,
        };
        for m in mirror_nodes {
            let pos = pos_maps[m.index()].at(v) as usize;
            metas[m.index()][pos] = Some(meta.clone());
        }
        metas[owner][master_pos as usize] = Some(meta);
    }

    for lg in &mut graphs {
        lg.rebuild_active_frontier();
    }

    let lists = in_edges.into_iter().zip(out_local);
    graphs
        .into_iter()
        .zip(lists)
        .zip(metas)
        .map(|((lg, (in_edges, out_local)), metas)| ReferenceEc {
            lg,
            in_edges,
            out_local,
            metas,
        })
        .collect()
}

/// The library's graph for one node against the reference's: the same
/// copies at the same positions, the same edge lists in the same order
/// behind the accessors, and the same full state exported by each.
fn assert_ec_equals_reference(built: &EcLocalGraph<u64>, want: &ReferenceEc<u64>) {
    assert_eq!(built.node, want.lg.node);
    assert_eq!(built.index, want.lg.index, "index of {}", built.node);
    assert_eq!(built.active_frontier, want.lg.active_frontier);
    assert_eq!(built.len(), want.lg.len(), "copies on {}", built.node);
    for (pos, (ours, theirs)) in built.verts.iter().zip(&want.lg.verts).enumerate() {
        let header = |v: &EcVertex<u64>| {
            let flags = (v.active, v.next_active, v.last_activate);
            (v.vid, v.kind, v.master_node, v.value, flags)
        };
        assert_eq!(
            header(ours),
            header(theirs),
            "copy at {pos} on {}",
            built.node
        );
        assert_eq!(
            built.in_edges(pos as u32),
            &want.in_edges[pos][..],
            "in-edges of {} on {}",
            ours.vid,
            built.node
        );
        assert_eq!(
            built.out_local(pos as u32),
            &want.out_local[pos][..],
            "consumers of {} on {}",
            ours.vid,
            built.node
        );
        let exported = built.full_state(pos as u32).map(|state| state.to_meta());
        assert_eq!(
            exported, want.metas[pos],
            "full state of {} on {}",
            ours.vid, built.node
        );
    }
}

/// The vertex-cut builder as of PR 12.
fn reference_vertex_cut_graphs<P: VertexProgram>(
    g: &Graph,
    cut: &VertexCut,
    plan: &FtPlan,
    prog: &P,
    degrees: &Degrees,
) -> Vec<VcLocalGraph<P::Value>> {
    assert_eq!(plan.num_vertices(), g.num_vertices(), "plan size mismatch");
    let parts = cut.num_parts();
    let n = g.num_vertices();

    // 1. Copy sets: master ∪ edge-adjacency replicas ∪ extra FT replicas.
    let mut copies: Vec<Vec<Vid>> = vec![Vec::new(); parts];
    for i in 0..n {
        let v = Vid::from_index(i);
        copies[cut.master(v)].push(v);
        for &p in cut.replica_parts(v) {
            copies[p as usize].push(v);
        }
        for &node in plan.extras(v) {
            copies[node.index()].push(v);
        }
    }
    let mut pos_maps: Vec<PosIndex> = Vec::with_capacity(parts);
    for list in &mut copies {
        list.sort_unstable();
        list.dedup();
        pos_maps.push(PosIndex::from_sorted_vids(list));
    }

    // 2. Vertex entries.
    let mut graphs: Vec<VcLocalGraph<P::Value>> = (0..parts)
        .map(|p| {
            let node = NodeId::from_index(p);
            let verts = copies[p]
                .iter()
                .map(|&v| {
                    let owner = NodeId::from_index(cut.master(v));
                    let kind = if owner == node {
                        CopyKind::Master
                    } else if plan.mirrors(v).contains(&node) {
                        CopyKind::Mirror
                    } else {
                        CopyKind::Replica
                    };
                    VcVertex::new(v, kind, owner, prog.init(v, degrees))
                })
                .collect();
            let mut lg = VcLocalGraph::empty(node);
            (lg.verts, lg.index) = (verts, pos_maps[p].clone());
            lg
        })
        .collect();

    // 3. Edges onto their owner parts.
    for (e, &p) in g.edges().iter().zip(cut.edge_owner()) {
        let p = p as usize;
        graphs[p].edges.push(VcEdge {
            src: pos_maps[p].at(e.src),
            dst: pos_maps[p].at(e.dst),
            weight: e.weight,
        });
    }

    // 4. Full state.
    for i in 0..n {
        let v = Vid::from_index(i);
        let owner = cut.master(v);
        let meta = reference_locations(v, owner, cut.replica_parts(v), plan, &pos_maps);
        graphs[owner].set_locations(pos_maps[owner].at(v), meta.view());
        for m in plan.mirrors(v) {
            let pos = pos_maps[m.index()].at(v);
            graphs[m.index()].set_locations(pos, meta.view());
        }
    }

    graphs
}

/// Values and activity that depend on the vertex, so a copy built for the
/// wrong vertex cannot compare equal.
struct Labelled;

impl VertexProgram for Labelled {
    type Value = u64;
    type Accum = u64;

    fn init(&self, vid: Vid, d: &Degrees) -> u64 {
        u64::from(vid.raw()) << 32 | u64::from(d.out_degree(vid))
    }

    fn gather(&self, _w: f32, src: &u64) -> u64 {
        *src
    }

    fn combine(&self, a: u64, b: u64) -> u64 {
        a.min(b)
    }

    fn apply(&self, _v: Vid, old: &u64, _acc: Option<u64>, _d: &Degrees) -> u64 {
        *old
    }

    fn scatter(&self, _v: Vid, _old: &u64, _new: &u64) -> bool {
        false
    }

    fn initially_active(&self, vid: Vid) -> bool {
        !vid.raw().is_multiple_of(3)
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Small multigraphs: endpoints are drawn modulo `n`, so self-loops and
/// duplicate edges are common, vertices without edges appear whenever the
/// pair list is short, and every edge has its own weight (a list built in
/// the wrong order compares unequal).
fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        1usize..48,
        proptest::collection::vec((any::<u32>(), any::<u32>()), 0..160),
    )
        .prop_map(|(n, pairs)| {
            let mut edges: Vec<Edge> = pairs
                .iter()
                .enumerate()
                .map(|(i, &(a, b))| {
                    Edge::weighted(Vid::new(a % n as u32), Vid::new(b % n as u32), i as f32)
                })
                .collect();
            // Always at least one self-loop and one repeated edge.
            edges.push(Edge::weighted(Vid::new(0), Vid::new(0), -1.0));
            let again = edges[0];
            edges.push(again);
            Graph::from_edges(n, edges)
        })
}

/// A plan giving every vertex `k` mirrors on distinct nodes other than its
/// master's, drawn at random: existing replicas and fresh nodes mixed in any
/// order (a fresh node becomes an extra FT replica), selfish flags on or off.
fn random_plan(
    g: &Graph,
    parts: usize,
    k: usize,
    selfish: bool,
    seed: u64,
    place: impl Fn(Vid) -> (usize, Vec<u32>),
) -> FtPlan {
    let n = g.num_vertices();
    let (mut mirror, mut extra_replicas) = (vec![Vec::new(); n], vec![Vec::new(); n]);
    let mut flags = vec![false; n];
    let mut rng = seed;
    for v in g.vertices() {
        let (master, replicas) = place(v);
        let mut nodes: Vec<usize> = (0..parts).filter(|&p| p != master).collect();
        for _ in 0..k {
            let node = nodes.swap_remove(splitmix(&mut rng) as usize % nodes.len());
            mirror[v.index()].push(NodeId::from_index(node));
            if !replicas.contains(&(node as u32)) {
                extra_replicas[v.index()].push(NodeId::from_index(node));
            }
        }
        flags[v.index()] = selfish && splitmix(&mut rng).is_multiple_of(2);
    }
    FtPlan {
        mirror: Ragged::from_rows(&mirror),
        extra_replicas: Ragged::from_rows(&extra_replicas),
        selfish: flags,
    }
}

fn ec_plan(g: &Graph, cut: &EdgeCut, k: usize, selfish: bool, seed: u64) -> FtPlan {
    random_plan(g, cut.num_parts(), k, selfish, seed, |v| {
        (cut.owner(v), cut.replica_parts(v).to_vec())
    })
}

fn vc_plan(g: &Graph, cut: &VertexCut, k: usize, selfish: bool, seed: u64) -> FtPlan {
    random_plan(g, cut.num_parts(), k, selfish, seed, |v| {
        (cut.master(v), cut.replica_parts(v).to_vec())
    })
}

/// Tolerance `k` needs `k` nodes besides the master's.
fn arb_shape() -> impl Strategy<Value = (usize, usize, bool, u64)> {
    (1usize..=8, 0usize..=3, any::<bool>(), any::<u64>())
        .prop_map(|(parts, k, selfish, seed)| (parts, k.min(parts - 1), selfish, seed))
}

proptest! {
    #[test]
    fn edge_cut_loader_equals_reference(
        (g, (parts, k, selfish, seed)) in (arb_graph(), arb_shape())
    ) {
        let cut = HashEdgeCut.partition(&g, parts);
        let plan = ec_plan(&g, &cut, k, selfish, seed);
        let degrees = Degrees::of(&g);
        let built = build_edge_cut_graphs(&g, &cut, &plan, &Labelled, &degrees);
        let want = reference_edge_cut_graphs(&g, &cut, &plan, &Labelled, &degrees);
        prop_assert_eq!(built.len(), want.len());
        for (lg, want) in built.iter().zip(&want) {
            assert_ec_equals_reference(lg, want);
            lg.debug_validate();
            assert_ec_exact(lg);
        }
    }

    /// No master keeps the sources of its in-edges: what it exports reads
    /// them off its graph, and they are the edge list's, in its order — what
    /// each of its mirrors stores, list for list. The store's source column
    /// is the mirrors' alone.
    #[test]
    fn a_master_names_its_sources_through_its_in_edges(
        (g, (parts, k, selfish, seed)) in (arb_graph(), arb_shape())
    ) {
        let parts = parts.max(2);
        let k = k.clamp(1, parts - 1);
        let cut = HashEdgeCut.partition(&g, parts);
        let plan = ec_plan(&g, &cut, k, selfish, seed);
        let degrees = Degrees::of(&g);
        let built = build_edge_cut_graphs(&g, &cut, &plan, &Labelled, &degrees);
        let mut mirrors = 0;
        for lg in &built {
            let mut mirrored = 0;
            for pos in 0..lg.len() as u32 {
                let v = &lg.verts[pos as usize];
                let Some(state) = lg.full_state(pos) else {
                    continue;
                };
                if v.is_master() {
                    let read_off = matches!(state.in_edges, InEdges::Local { .. });
                    prop_assert!(read_off, "master {} stores its sources", v.vid);
                    let srcs = g.edges().iter().filter(|e| e.dst == v.vid).map(|e| e.src);
                    prop_assert!(state.in_edges.srcs().eq(srcs), "sources of {}", v.vid);
                } else {
                    let stored = matches!(state.in_edges, InEdges::Run(_));
                    prop_assert!(stored, "mirror of {} stores no run", v.vid);
                    let owner = &built[v.master_node.index()];
                    let master = owner.position(v.vid).expect("a mirror has a master");
                    prop_assert_eq!(Some(state), owner.full_state(master), "mirror of {}", v.vid);
                    mirrored += state.in_edges.len();
                    mirrors += 1;
                }
            }
            prop_assert_eq!(lg.full_state_entries().in_edges, mirrored);
        }
        prop_assert_eq!(mirrors, k * g.num_vertices());
    }

    #[test]
    fn vertex_cut_loader_equals_reference(
        (g, (parts, k, selfish, seed), hybrid) in (arb_graph(), arb_shape(), any::<bool>())
    ) {
        let cut = if hybrid {
            HybridVertexCut::with_threshold(4).partition(&g, parts)
        } else {
            RandomVertexCut.partition(&g, parts)
        };
        let plan = vc_plan(&g, &cut, k, selfish, seed);
        let degrees = Degrees::of(&g);
        let built = build_vertex_cut_graphs(&g, &cut, &plan, &Labelled, &degrees);
        let want = reference_vertex_cut_graphs(&g, &cut, &plan, &Labelled, &degrees);
        prop_assert_eq!(&built, &want);
        for lg in &built {
            lg.debug_validate();
            assert_vc_exact(lg);
        }
    }
}

fn assert_ec_exact(lg: &EcLocalGraph<u64>) {
    assert_eq!(lg.verts.capacity(), lg.verts.len(), "verts");
    assert_eq!(
        lg.active_frontier.capacity(),
        lg.active_frontier.len(),
        "active_frontier"
    );
    // The hot columns hold the copies' edge lists, the store what their full
    // state adds up to — location tables included — and not an entry more. (That the columns' capacity
    // is their length is asserted where it can be seen, in the engine's unit
    // tests.)
    let positions = 0..lg.len() as u32;
    let listed = |len: &dyn Fn(u32) -> usize| positions.clone().map(len).sum::<usize>();
    assert_eq!(
        lg.edge_list_lens(),
        (
            listed(&|pos| lg.in_edges(pos).len()),
            listed(&|pos| lg.out_local(pos).len())
        ),
        "hot columns of {}",
        lg.node
    );
    assert_eq!(
        lg.full_state_lens(),
        lg.live_full_state_lens(),
        "store of {}",
        lg.node
    );
}

fn assert_vc_exact(lg: &VcLocalGraph<u64>) {
    assert_eq!(lg.verts.capacity(), lg.verts.len(), "verts");
    assert_eq!(lg.edges.capacity(), lg.edges.len(), "edges");
    // The store holds the masters' and mirrors' tables and not a word more.
    let held = (0..lg.len() as u32).filter_map(|pos| lg.locations(pos));
    assert_eq!(
        lg.full_state_lens(),
        FullState::of(held.map(FullStateRef::tables)).lens(),
        "store of {}",
        lg.node
    );
}

/// The benchmark's PageRank shape at a tenth of its size, both engines,
/// with one mirror per vertex: equal to the reference, and exact-size.
#[test]
fn power_law_graphs_equal_reference_and_carry_no_slack() {
    let g = gen::power_law(10_000, 2.0, 10, 3);
    let degrees = Degrees::of(&g);

    let cut = HashEdgeCut.partition(&g, 4);
    let plan = ec_plan(&g, &cut, 1, true, 7);
    let built = build_edge_cut_graphs(&g, &cut, &plan, &Labelled, &degrees);
    let want = reference_edge_cut_graphs(&g, &cut, &plan, &Labelled, &degrees);
    assert_eq!(built.len(), want.len());
    for (lg, want) in built.iter().zip(&want) {
        assert_ec_equals_reference(lg, want);
        assert_ec_exact(lg);
    }

    let cut = RandomVertexCut.partition(&g, 4);
    let plan = vc_plan(&g, &cut, 1, true, 7);
    let built = build_vertex_cut_graphs(&g, &cut, &plan, &Labelled, &degrees);
    assert!(built == reference_vertex_cut_graphs(&g, &cut, &plan, &Labelled, &degrees));
    built.iter().for_each(assert_vc_exact);
}

/// A mirror on a node that holds no copy is a plan bug; the builder thread's
/// panic reaches the caller with its message.
#[test]
#[should_panic(expected = "has no copy there")]
fn mirror_without_a_copy_panics_on_the_caller() {
    let g = gen::from_pairs(3, &[(0, 1), (1, 0)]); // v2 isolated: no replicas
    let cut = HashEdgeCut.partition(&g, 2);
    let other = NodeId::from_index(1 - cut.owner(Vid::new(2)));
    let plan = FtPlan {
        mirror: Ragged::from_rows(&[vec![], vec![], vec![other]]),
        ..FtPlan::none(3)
    };
    build_edge_cut_graphs(&g, &cut, &plan, &Labelled, &Degrees::of(&g));
}
