//! A recovery episode on loader-built graphs, driven through every mutator
//! Migration uses, then rolled back: the graph must come back equal and every
//! store — copies, index, the two hot edge-list columns, slot table,
//! table words, full-state columns, vertex-cut edges — at exactly the length
//! it had, for both engines at K = 1 and 2; and a mutator that finds nothing
//! to change journals nothing. (What the real protocol does inside an
//! episode is checked in the `imitator` crate, whose debug builds hold every
//! rollback against an encoded snapshot.)

use imitator_cluster::NodeId;
use imitator_engine::{
    build_edge_cut_graphs, build_vertex_cut_graphs, CopyKind, Degrees, EcLocalGraph, EcVertex,
    EdgeLists, Episode, FtPlan, FullState, FullStateBatches, FullStateRef, Locations, RemoteEdge,
    VcEdge, VcLocalGraph, VcVertex, VertexProgram,
};
use imitator_graph::{gen, Graph, Ragged, Vid};
use imitator_partition::{EdgeCutPartitioner, HashEdgeCut, RandomVertexCut, VertexCutPartitioner};

struct Count;

impl VertexProgram for Count {
    type Value = u64;
    type Accum = u64;
    fn init(&self, v: Vid, _d: &Degrees) -> u64 {
        u64::from(v.raw())
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

const NODES: usize = 4;
/// The crashed node.
fn dead() -> NodeId {
    NodeId::new(1)
}

fn graph() -> Graph {
    gen::power_law(600, 2.0, 6, 23)
}

/// Every vertex mirrored on its first `k` replica nodes.
fn plan(g: &Graph, k: usize, replica_parts: impl Fn(Vid) -> Vec<u32>) -> FtPlan {
    let hosts = |v| replica_parts(v).into_iter().take(k).map(NodeId::new);
    let rows: Vec<Vec<NodeId>> = g.vertices().map(|v| hosts(v).collect()).collect();
    FtPlan {
        mirror: Ragged::from_rows(&rows),
        ..FtPlan::none(g.num_vertices())
    }
}

/// The lengths of every store of an edge-cut graph.
fn ec_lens(lg: &EcLocalGraph<u64>) -> impl PartialEq + std::fmt::Debug {
    (
        lg.len(),
        lg.index.len(),
        lg.edge_list_lens(),
        lg.full_state_lens(),
    )
}

/// The lengths of every store of a vertex-cut graph.
fn vc_lens(lg: &VcLocalGraph<u64>) -> impl PartialEq + std::fmt::Debug {
    (
        lg.len(),
        lg.index.len(),
        lg.edges.len(),
        lg.full_state_lens(),
    )
}

/// What a survivor of that crash does to its graph in a Migration, in
/// the protocol's order and through the same calls, on whatever the graph
/// offers: promotes the dead node's mirrors, purges it from the masters' tables and
/// re-points their remote consumers, places new copies, wires in-edges and
/// consumers, upgrades replicas with a batch of full state taken whole and
/// refreshes mirrors with one taken record by record. Returns how many
/// things it changed.
fn migrate_by_hand(lg: &mut EcLocalGraph<u64>, donor: &EcLocalGraph<u64>, n: usize) -> usize {
    let me = lg.node;
    let loaded = lg.len() as u32;
    let mut changed = 0;
    for pos in 0..loaded {
        let v = &lg.verts[pos as usize];
        let (kind, master_node) = (v.kind, v.master_node);
        match kind {
            CopyKind::Mirror if master_node == dead() => {
                lg.set_kind(pos, CopyKind::Master);
                lg.set_master_node(pos, me);
                lg.edit_locations(pos, |tables| {
                    tables.set_master_pos(pos);
                    tables.purge_node(me);
                    tables.purge_node(dead());
                })
                .expect("mirrors carry full state");
                lg.set_active(pos, false);
                let (in_edges, consumers) = lg.take_owner_lists(pos);
                lg.extend_out_remote(
                    pos,
                    &consumers
                        .iter()
                        .map(|&c| RemoteEdge {
                            node: NodeId::new(2),
                            pos: c,
                        })
                        .collect::<Vec<_>>(),
                );
                let rewired: Vec<(u32, f32)> = in_edges.iter().map(|&(_, w)| (pos, w)).collect();
                lg.set_in_edges(pos, &rewired);
                lg.set_active(pos, true);
                changed += 1;
            }
            CopyKind::Master => {
                lg.edit_locations(pos, |tables| tables.purge_node(dead()));
                changed += usize::from(lg.retain_out_remote(pos, |r| {
                    let moved = r.node == dead();
                    if moved {
                        (r.node, r.pos) = (NodeId::new(3), r.pos + 1);
                    }
                    !(moved && r.pos % 2 == 0)
                }));
                lg.extend_out_local(pos, &[pos]);
                if pos % 3 == 0 {
                    // Replaced shorter, equal and longer: a run that predates
                    // the episode is never written over.
                    let fed = lg.out_local(pos).to_vec();
                    lg.set_out_local(pos, &fed[1..]);
                    lg.set_out_local(pos, &fed);
                }
                lg.edit_locations(pos, |tables| tables.add_mirror(NodeId::new(3)));
            }
            CopyKind::Replica if master_node == dead() => lg.set_master_node(pos, NodeId::new(2)),
            _ => {}
        }
    }
    // Grants and fresh mirrors: vertices this node holds no copy of.
    let absent = (0..n as u32).map(Vid::new);
    let absent: Vec<Vid> = absent
        .filter(|&v| lg.position(v).is_none())
        .take(9)
        .collect();
    let fed: Vec<u32> = lg.master_positions().take(2).collect();
    let placed: Vec<u32> = absent
        .into_iter()
        .map(|vid| {
            let mut granted = EcVertex::new(vid, CopyKind::Replica, NodeId::new(2), 7);
            granted.last_activate = true;
            let pos = lg.push_copy(granted);
            lg.extend_out_local(pos, &fed);
            pos
        })
        .collect();
    changed += placed.len();
    // Upgrades (a loaded replica, the placed copies): a batch taken whole.
    let replica = (0..loaded).find(|&p| lg.verts[p as usize].kind == CopyKind::Replica);
    let upgraded: Vec<u32> = replica.into_iter().chain(placed).collect();
    let mut batch = FullState::default();
    for pos in donor.master_positions().take(upgraded.len()) {
        batch.push(donor.full_state(pos).unwrap());
    }
    assert_eq!(
        batch.len(),
        upgraded.len(),
        "the donor has masters to spare"
    );
    for &pos in &upgraded {
        lg.set_kind(pos, CopyKind::Mirror);
    }
    lg.adopt_full_states(&[(&upgraded, &batch, &[])]);
    // Refreshes of loaded mirrors: record by record, some lists as stored,
    // each record carrying some of its lists; a mirror keeps the others.
    let mirrors: Vec<u32> = (0..loaded)
        .filter(|&p| lg.verts[p as usize].kind == CopyKind::Mirror)
        .take(upgraded.len())
        .collect();
    let held: Vec<_> = mirrors
        .iter()
        .map(|&p| lg.full_state(p).unwrap().to_meta())
        .collect();
    let (mut refresh, mut lists) = (FullState::default(), Vec::new());
    for (i, &pos) in mirrors.iter().enumerate() {
        let own = lg.full_state(pos).unwrap().to_meta();
        let other = batch.nth(i).to_meta();
        let carried = EdgeLists::from_bits(i as u8 % 8).unwrap();
        let sent = if i % 2 == 0 { own.view() } else { other.view() };
        refresh.push(sent.carrying(carried));
        lists.push(carried);
    }
    lg.adopt_full_states(&[(&mirrors, &refresh, &lists)]);
    for (i, &pos) in mirrors.iter().enumerate() {
        let (now, sent, carried) = (lg.full_state(pos).unwrap(), refresh.nth(i), lists[i]);
        let pick = |list| {
            if carried.contains(list) {
                sent
            } else {
                held[i].view()
            }
        };
        assert_eq!(now.locations, sent.locations);
        let ins = pick(EdgeLists::IN_EDGES);
        assert_eq!(
            (now.in_edges_owner, now.in_edge_srcs),
            (ins.in_edges_owner, ins.in_edge_srcs)
        );
        assert_eq!(
            now.out_local_owner,
            pick(EdgeLists::OUT_LOCAL).out_local_owner
        );
        assert_eq!(now.out_remote, pick(EdgeLists::OUT_REMOTE).out_remote);
    }
    changed + mirrors.len()
}

#[test]
fn rollback_leaves_no_trace_in_any_store() {
    let g = graph();
    let degrees = Degrees::of(&g);
    for k in 1..=2 {
        let cut = HashEdgeCut.partition(&g, NODES);
        let ft = plan(&g, k, |v| cut.replica_parts(v).to_vec());
        let lgs = build_edge_cut_graphs(&g, &cut, &ft, &Count, &degrees);
        let donor = &lgs[dead().index()];
        for before in lgs.iter().filter(|lg| lg.node != dead()) {
            let mut lg = before.clone();
            lg.begin_episode();
            assert!(
                migrate_by_hand(&mut lg, donor, g.num_vertices()) > 50,
                "k={k}"
            );
            assert!(lg != *before && ec_lens(&lg) != ec_lens(before), "k={k}");
            // Mid-episode the graph holds together — `validate` holds every
            // master's slot, the promoted ones' included, to no in-edge
            // source — once its frontier, which no episode journals, is
            // recomputed: on a copy.
            let mut promoted = lg.clone();
            promoted.rebuild_active_frontier();
            promoted.debug_validate();
            let journal = lg.journal_bytes();
            assert!(journal > 0, "k={k}");
            lg.rollback();
            assert!(lg == *before, "k={k}: graph of {} differs", lg.node);
            assert_eq!(
                ec_lens(&lg),
                ec_lens(before),
                "k={k}: stores of {}",
                lg.node
            );
            // Undone, every slot is back to what the loader gave it: the
            // source column is the mirrors' again, entry for entry.
            lg.debug_validate();
            let mirrored = |pos: u32| {
                let mirror = lg.verts[pos as usize].kind == CopyKind::Mirror;
                mirror.then(|| lg.full_state(pos).unwrap().in_edges_owner.len())
            };
            let mirrored: usize = (0..lg.len() as u32).filter_map(mirrored).sum();
            assert_eq!(lg.full_state_lens().edges.in_srcs, mirrored, "k={k}");
            // The next attempt starts where this one did, and may keep its work.
            lg.begin_episode();
            migrate_by_hand(&mut lg, donor, g.num_vertices());
            assert_eq!(lg.journal_bytes(), journal, "k={k}: equal episodes");
            let kept = lg.clone();
            lg.commit();
            assert_eq!(lg.journal_bytes(), 0);
            lg.rollback();
            assert!(lg == kept, "k={k}: nothing to roll back after a commit");
        }

        let cut = RandomVertexCut.partition(&g, NODES);
        let ft = plan(&g, k, |v| cut.replica_parts(v).to_vec());
        let lgs = build_vertex_cut_graphs(&g, &cut, &ft, &Count, &degrees);
        for before in lgs.iter().filter(|lg| lg.node != dead()) {
            let mut lg: VcLocalGraph<u64> = before.clone();
            let me = lg.node;
            lg.begin_episode();
            for pos in 0..before.len() as u32 {
                let v = &lg.verts[pos as usize];
                match (v.kind, v.master_node == dead()) {
                    (CopyKind::Mirror, true) => {
                        lg.set_kind(pos, CopyKind::Master);
                        lg.set_master_node(pos, me);
                        lg.edit_locations(pos, |tables| {
                            tables.set_master_pos(pos);
                            tables.purge_node(me);
                        });
                    }
                    (CopyKind::Master, _) => {
                        lg.edit_locations(pos, |tables| tables.purge_node(dead()));
                    }
                    (CopyKind::Replica, true) => {
                        lg.set_master_node(pos, NodeId::new(2));
                        lg.set_kind(pos, CopyKind::Mirror);
                        let tables = (0..before.len() as u32).find_map(|p| before.locations(p));
                        lg.set_locations(pos, tables.expect("some copy has tables"));
                    }
                    _ => {}
                }
            }
            let absent = (0..g.num_vertices() as u32).map(Vid::new);
            for vid in absent.filter(|&v| before.position(v).is_none()).take(5) {
                let granted = VcVertex::new(vid, CopyKind::Replica, NodeId::new(3), 1);
                let pos = lg.insert_or_position(granted);
                lg.edges.push(VcEdge {
                    src: pos,
                    dst: 0,
                    weight: 1.0,
                });
            }
            assert!(lg != *before && lg.journal_bytes() > 0, "k={k}");
            lg.rollback();
            assert!(lg == *before, "k={k}: graph of {me} differs");
            assert_eq!(vc_lens(&lg), vc_lens(before), "k={k}: stores of {me}");
            lg.debug_validate();
        }
    }
}

/// Edits that leave `tables` as they are: purging nodes no table names,
/// re-setting the master position, re-registering every replica where it is.
fn edit_nothing(tables: &mut Locations) {
    let held = tables.clone();
    let held = held.view();
    tables.purge_nodes(&[NodeId::new(NODES as u32), NodeId::new(NODES as u32 + 3)]);
    tables.set_master_pos(held.master_pos());
    for (node, &pos) in held.replica_nodes().iter().zip(held.replica_positions()) {
        tables.register_replica(node, pos);
    }
}

/// The R8 refresh rule — "a list equal to what is stored is not written at
/// all" — holds for the location tables too: edits that change nothing, and
/// adopting the tables a copy already holds, leave the journal as
/// `begin_episode` left it and the stores at their lengths.
#[test]
fn an_edit_that_changes_nothing_journals_nothing() {
    let g = graph();
    let degrees = Degrees::of(&g);
    let cut = HashEdgeCut.partition(&g, NODES);
    let ft = plan(&g, 1, |v| cut.replica_parts(v).to_vec());
    for mut lg in build_edge_cut_graphs(&g, &cut, &ft, &Count, &degrees) {
        let loaded = ec_lens(&lg);
        lg.begin_episode();
        let idle = lg.journal_bytes();
        for pos in 0..lg.len() as u32 {
            lg.edit_locations(pos, edit_nothing);
        }
        assert_eq!((lg.journal_bytes(), ec_lens(&lg)), (idle, loaded));
        // One real change costs one head image, once.
        let master = lg.master_positions().next().expect("a master");
        lg.edit_locations(master, |tables| tables.add_mirror(dead()));
        let one = lg.journal_bytes();
        assert!(one > idle && one <= idle + 16);
        lg.edit_locations(master, |tables| tables.purge_node(dead()));
        assert_eq!(lg.journal_bytes(), one, "one image per head");
    }

    let cut = RandomVertexCut.partition(&g, NODES);
    let ft = plan(&g, 1, |v| cut.replica_parts(v).to_vec());
    for mut lg in build_vertex_cut_graphs(&g, &cut, &ft, &Count, &degrees) {
        let loaded = vc_lens(&lg);
        lg.begin_episode();
        let idle = lg.journal_bytes();
        let held: Vec<u32> = (0..lg.len() as u32)
            .filter(|&pos| lg.locations(pos).is_some())
            .collect();
        for &pos in &held {
            lg.edit_locations(pos, edit_nothing);
        }
        let tables = held.iter().map(|&pos| lg.locations(pos).unwrap());
        let same = FullState::of(tables.map(FullStateRef::tables));
        lg.adopt_full_states(&[(&held, &same, &[])]);
        assert_eq!((lg.journal_bytes(), vc_lens(&lg)), (idle, loaded));
    }
}
