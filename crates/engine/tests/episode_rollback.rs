//! A recovery episode on loader-built graphs, driven through every mutator
//! Migration uses, then rolled back: the graph must come back equal and every
//! store — copies, index, the two hot edge-list columns, slot table,
//! table words, full-state columns, vertex-cut edges — at exactly the length
//! it had, for both engines at K = 1 and 2; and a mutator that finds nothing
//! to change journals nothing; and, over random sequences of the store
//! edits Migration makes, every mirror's block stays what a message writes
//! and rollback restores it. (What the real protocol does inside an
//! episode is checked in the `imitator` crate, whose debug builds hold every
//! rollback against an encoded snapshot.)

use imitator_cluster::NodeId;
use imitator_engine::{
    build_edge_cut_graphs, build_vertex_cut_graphs, CopyKind, Degrees, EcLocalGraph, EcVertex,
    EdgeLists, Episode, FtPlan, FullState, FullStateBatches, FullStateRef, InEdge, InEdges, List,
    Locations, RemoteEdge, VcEdge, VcLocalGraph, VcVertex, VertexProgram,
};
use imitator_graph::{gen, Graph, Ragged, Vid};
use imitator_partition::{EdgeCutPartitioner, HashEdgeCut, RandomVertexCut, VertexCutPartitioner};
use proptest::prelude::*;

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
                let kept = lg.stored_full_state(pos).expect("mirrors carry full state");
                let vid = lg.verts[pos as usize].vid;
                let rewired: Vec<InEdge> = kept
                    .in_edges
                    .iter()
                    .map(|e| InEdge { src: vid, ..e })
                    .collect();
                let mut remote = kept.out_remote.to_vec();
                let moved = kept.out_local_owner.iter().map(|c| RemoteEdge {
                    consumer: Vid::new(c),
                });
                remote.extend(moved);
                lg.set_out_remote(pos, &remote);
                lg.set_in_edges_by_source(pos, InEdges::Slice(&rewired));
                lg.set_active(pos, true);
                changed += 1;
            }
            CopyKind::Master => {
                lg.edit_locations(pos, |tables| tables.purge_node(dead()));
                let mut remote = lg.full_state(pos).unwrap().out_remote.to_vec();
                remote.retain_mut(|r| {
                    let moved = r.consumer.raw() % NODES as u32 == 1;
                    if moved {
                        r.consumer = Vid::new(r.consumer.raw() + 1);
                    }
                    !(moved && r.consumer.raw() % 2 == 0)
                });
                changed += usize::from(lg.set_out_remote(pos, &remote));
                lg.extend_out_local(pos, &[pos]);
                if pos % 3 == 0 {
                    // Replaced shorter, equal and longer: a run that predates
                    // the episode is never written over.
                    let fed = by_source(lg, lg.in_edges(pos));
                    let shorter = &fed[fed.len().min(1)..];
                    lg.set_in_edges_by_source(pos, InEdges::Slice(shorter));
                    lg.set_in_edges_by_source(pos, InEdges::Slice(&fed));
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
        assert_eq!(now.in_edges, pick(EdgeLists::IN_EDGES).in_edges);
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
            // Mid-episode the graph holds together once its frontier, which
            // no episode journals, is recomputed: on a copy.
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
            // in-edges in the store are the mirrors' again, entry for entry,
            // in the loader's layout.
            lg.debug_validate();
            let mirrored = |pos: u32| {
                let mirror = lg.verts[pos as usize].kind == CopyKind::Mirror;
                mirror.then(|| lg.full_state(pos).unwrap().in_edges.len())
            };
            let mirrored: usize = (0..lg.len() as u32).filter_map(mirrored).sum();
            assert_eq!(lg.full_state_entries().in_edges, mirrored, "k={k}");
            assert_eq!(lg.full_state_weights(), before.full_state_weights());
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

/// The in-edges `edges`, each source named by the vertex of its copy here.
fn by_source(lg: &EcLocalGraph<u64>, edges: &[(u32, f32)]) -> Vec<InEdge> {
    let vid = |src: u32| lg.verts[src as usize].vid;
    let edges = edges.iter().map(|&(src, weight)| InEdge {
        weight,
        src: vid(src),
    });
    edges.collect()
}

/// Writes every copy's value and flags of an edge-cut graph after imaging
/// them, as a rollback to a snapshot does, then upgrades a loaded replica to
/// master in place — its header imaged with the flags just written — and
/// appends a copy. The active frontier follows the flags.
fn roll_back_upgrade_and_append_ec(lg: &mut EcLocalGraph<u64>) {
    let me = lg.node;
    lg.touch_values();
    for (pos, v) in lg.verts.iter_mut().enumerate() {
        v.value += 1_000;
        (v.active, v.next_active) = (!v.active, pos % 3 == 0);
        v.last_activate = !v.last_activate;
    }
    let replica = copies(lg, |v| v.kind == CopyKind::Replica)[0];
    let master = lg.master_positions().next().expect("a master");
    let state = lg.full_state(master).unwrap().to_meta();
    lg.set_kind(replica, CopyKind::Master);
    lg.set_master_node(replica, me);
    let fed = by_source(lg, &[(master, 0.5)]);
    lg.set_in_edges_by_source(replica, InEdges::Slice(&fed));
    let consumers = [master, replica].map(|pos| lg.verts[pos as usize].vid);
    lg.set_out_local_by_consumer(replica, consumers.into_iter());
    lg.set_full_state(replica, state.view());
    let appended = lg.push_copy(EcVertex::new(Vid::new(1 << 20), CopyKind::Master, me, 7));
    lg.set_full_state(appended, state.view());
    lg.rebuild_active_frontier();
}

/// [`roll_back_upgrade_and_append_ec`] on a vertex-cut graph, which keeps no
/// flags.
fn roll_back_upgrade_and_append_vc(lg: &mut VcLocalGraph<u64>) {
    let me = lg.node;
    lg.touch_values();
    for v in &mut lg.verts {
        v.value += 1_000;
    }
    let replica = (0..lg.len() as u32).find(|&p| lg.verts[p as usize].kind == CopyKind::Replica);
    let replica = replica.expect("a replica");
    let master = (0..lg.len() as u32).find(|&p| lg.verts[p as usize].kind == CopyKind::Master);
    let tables = lg.locations(master.expect("a master")).unwrap().to_owned();
    lg.set_kind(replica, CopyKind::Master);
    lg.set_master_node(replica, me);
    lg.set_locations(replica, tables.view());
    let appended = VcVertex::new(Vid::new(1 << 20), CopyKind::Master, me, 7);
    let appended = lg.insert_or_position(appended);
    lg.set_locations(appended, tables.view());
    lg.edges.push(VcEdge {
        src: replica,
        dst: appended,
        weight: 1.0,
    });
}

/// An episode on a graph without mirrors (checkpoint FT keeps none) — every
/// value and flag written, as a checkpoint recovery's rollback writes them,
/// a replica upgraded in place, a copy appended — rolls back to the graph
/// it found, active frontier and store lengths included, on loader-built
/// graphs of both engines; committed, it keeps what it wrote.
#[test]
fn a_rolled_back_value_column_and_appended_copies_leave_no_trace() {
    let g = graph();
    let degrees = Degrees::of(&g);
    let none = FtPlan::none(g.num_vertices());
    let cut = HashEdgeCut.partition(&g, NODES);
    for before in build_edge_cut_graphs(&g, &cut, &none, &Count, &degrees) {
        let node = before.node;
        let mut lg = before.clone();
        lg.touch_values();
        assert_eq!(lg.journal_bytes(), 0, "{node}: no episode, no image");
        lg.begin_episode();
        roll_back_upgrade_and_append_ec(&mut lg);
        let written = lg.clone();
        assert!(lg != before && lg.journal_bytes() > 0, "{node}");
        lg.rollback();
        assert!(lg == before, "{node}: graph differs");
        assert_eq!(ec_lens(&lg), ec_lens(&before), "{node}: stores");
        lg.begin_episode();
        roll_back_upgrade_and_append_ec(&mut lg);
        lg.commit();
        assert!(lg == written, "{node}: a commit keeps the writes");
    }
    let cut = RandomVertexCut.partition(&g, NODES);
    for before in build_vertex_cut_graphs(&g, &cut, &none, &Count, &degrees) {
        let node = before.node;
        let mut lg = before.clone();
        lg.begin_episode();
        roll_back_upgrade_and_append_vc(&mut lg);
        let written = lg.clone();
        assert!(lg != before && lg.journal_bytes() > 0, "{node}");
        lg.rollback();
        assert!(lg == before, "{node}: graph differs");
        assert_eq!(vc_lens(&lg), vc_lens(&before), "{node}: stores");
        lg.begin_episode();
        roll_back_upgrade_and_append_vc(&mut lg);
        lg.commit();
        assert!(lg == written, "{node}: a commit keeps the writes");
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

/// One edit a recovery attempt makes to a survivor's full state; `pick`
/// chooses the copy among those the edit applies to.
#[derive(Debug, Clone)]
enum Edit {
    /// A mirror refreshed record by record with the lists `lists` names,
    /// sent its own full state or another master's.
    Refresh { pick: usize, lists: u8, own: bool },
    /// A master's remote out-edges narrowed and rewritten.
    Retain { pick: usize, keep: u32 },
    /// A master's remote out-edges grown.
    Extend { pick: usize, more: usize },
    /// A mirror promoted: its slot keeps its block.
    Promote { pick: usize },
    /// Replicas made mirrors by a batch taken whole.
    AdoptWhole { count: usize },
    /// Mirrors sent all of their lists anew, record by record.
    AdoptRecords { count: usize },
}

fn edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (any::<usize>(), 0u8..8, any::<bool>()).prop_map(|(pick, lists, own)| Edit::Refresh {
            pick,
            lists,
            own
        }),
        (any::<usize>(), 1u32..4).prop_map(|(pick, keep)| Edit::Retain { pick, keep }),
        (any::<usize>(), 0usize..4).prop_map(|(pick, more)| Edit::Extend { pick, more }),
        any::<usize>().prop_map(|pick| Edit::Promote { pick }),
        (1usize..4).prop_map(|count| Edit::AdoptWhole { count }),
        (1usize..4).prop_map(|count| Edit::AdoptRecords { count }),
    ]
}

/// The positions of `lg`'s copies that `which` accepts.
fn copies(lg: &EcLocalGraph<u64>, which: impl Fn(&EcVertex<u64>) -> bool) -> Vec<u32> {
    (0..lg.len() as u32)
        .filter(|&pos| which(&lg.verts[pos as usize]))
        .collect()
}

/// Full states of `donor`'s masters, `count` of them from the `from`-th on.
fn donated(donor: &EcLocalGraph<u64>, from: usize, count: usize) -> FullState {
    let masters: Vec<u32> = donor.master_positions().collect();
    let picked = (0..count).map(|i| masters[(from + i) % masters.len()]);
    FullState::of(picked.map(|pos| donor.full_state(pos).expect("masters carry full state")))
}

/// Applies `edit` to `lg`, taking other masters' full state from `donor`.
fn apply(lg: &mut EcLocalGraph<u64>, donor: &EcLocalGraph<u64>, edit: &Edit) {
    let mirrors = copies(lg, |v| v.kind == CopyKind::Mirror);
    let masters = copies(lg, |v| v.is_master());
    match *edit {
        Edit::Refresh { pick, lists, own } if !mirrors.is_empty() => {
            let pos = mirrors[pick % mirrors.len()];
            let lists = EdgeLists::from_bits(lists).expect("three bits");
            let batch = match own {
                true => FullState::of(std::iter::once(lg.full_state(pos).unwrap())),
                false => donated(donor, pick, 1),
            };
            let held = lg.full_state(pos).unwrap().to_meta();
            let sent = batch.nth(0).to_meta();
            let carried = FullState::of(std::iter::once(sent.view().carrying(lists)));
            lg.adopt_full_states(&[(&[pos], &carried, &[lists])]);
            // The lists the record carries are the sender's, the others
            // the mirror's own.
            let now = lg.full_state(pos).unwrap().to_meta();
            let pick = |list| if lists.contains(list) { &sent } else { &held };
            assert_eq!(now.locations, sent.locations);
            assert_eq!(now.in_edges, pick(EdgeLists::IN_EDGES).in_edges);
            assert_eq!(
                now.out_local_owner,
                pick(EdgeLists::OUT_LOCAL).out_local_owner
            );
            assert_eq!(now.out_remote, pick(EdgeLists::OUT_REMOTE).out_remote);
        }
        Edit::Retain { pick, keep } if !masters.is_empty() => {
            let pos = masters[pick % masters.len()];
            let mut remote = lg.full_state(pos).unwrap().out_remote.to_vec();
            remote.retain_mut(|r| {
                r.consumer = Vid::new(r.consumer.raw() + 1);
                r.consumer.raw() % (keep + 1) != 0
            });
            lg.set_out_remote(pos, &remote);
        }
        Edit::Extend { pick, more } if !masters.is_empty() => {
            let pos = masters[pick % masters.len()];
            let mut remote = lg.full_state(pos).unwrap().out_remote.to_vec();
            remote.extend((0..more as u32).map(|i| RemoteEdge {
                consumer: Vid::new(pick as u32 % 1000 + i),
            }));
            lg.set_out_remote(pos, &remote);
        }
        Edit::Promote { pick } if !mirrors.is_empty() => {
            let pos = mirrors[pick % mirrors.len()];
            lg.set_kind(pos, CopyKind::Master);
            lg.set_master_node(pos, lg.node);
        }
        Edit::AdoptWhole { count } => {
            let slotless = copies(lg, |v| v.kind == CopyKind::Replica && v.meta.is_none());
            let upgraded: Vec<u32> = slotless.into_iter().take(count).collect();
            for &pos in &upgraded {
                lg.set_kind(pos, CopyKind::Mirror);
            }
            let batch = donated(donor, count, upgraded.len());
            lg.adopt_full_states(&[(&upgraded, &batch, &[])]);
        }
        Edit::AdoptRecords { count } => {
            let refreshed: Vec<u32> = mirrors.into_iter().take(count).collect();
            let batch = donated(donor, 2 * count, refreshed.len());
            let lists = vec![EdgeLists::ALL; refreshed.len()];
            lg.adopt_full_states(&[(&refreshed, &batch, &lists)]);
        }
        _ => {}
    }
}

/// Every mirror's block is one contiguous stretch of bytes — its three
/// runs back to back — and reads exactly what a message writes for the
/// slot's three lists in the store's layout.
fn blocks_are_what_a_message_writes(lg: &EcLocalGraph<u64>) -> Result<(), TestCaseError> {
    let uniform = lg.full_state_weights().uniform();
    for pos in copies(lg, |v| v.kind == CopyKind::Mirror) {
        let state = lg.full_state(pos).expect("mirrors carry full state");
        let (InEdges::Run(ins), List::Run(fed), List::Run(remote)) =
            (state.in_edges, state.out_local_owner, state.out_remote)
        else {
            return Err(TestCaseError::fail(format!(
                "mirror at {pos} holds no block"
            )));
        };
        let runs = [ins.bytes(), fed.bytes(), remote.bytes()];
        for pair in runs.windows(2) {
            prop_assert_eq!(pair[0].as_ptr_range().end, pair[1].as_ptr(), "at {}", pos);
        }
        let meta = state.to_meta();
        let mut wire = Vec::new();
        meta.view().in_edges.put(uniform, &mut wire);
        meta.view().out_local_owner.put(&mut wire);
        meta.view().out_remote.put(&mut wire);
        prop_assert_eq!(runs.concat(), wire, "mirror at {}", pos);
    }
    Ok(())
}

/// The graph written out field by field, every copy's lists and full state
/// decoded: equal graphs write equal bytes, wherever their stores keep what.
fn snapshot(lg: &EcLocalGraph<u64>) -> Vec<u8> {
    let mut out = Vec::new();
    let word = |out: &mut Vec<u8>, w: u32| out.extend_from_slice(&w.to_le_bytes());
    for pos in 0..lg.len() as u32 {
        let v = &lg.verts[pos as usize];
        let flags = [v.active, v.next_active, v.last_activate, v.meta.is_some()];
        let flags = flags
            .iter()
            .fold(u32::from(v.kind.bits()), |w, &f| w << 1 | u32::from(f));
        for w in [v.vid.raw(), flags, v.master_node.raw(), v.value as u32] {
            word(&mut out, w);
        }
        for &(src, weight) in lg.in_edges(pos) {
            word(&mut out, src);
            word(&mut out, weight.to_bits());
        }
        lg.out_local(pos).iter().for_each(|&c| word(&mut out, c));
        if let Some(state) = lg.full_state(pos) {
            let tables = state.locations;
            word(&mut out, tables.master_pos());
            tables
                .replica_nodes()
                .iter()
                .for_each(|n| word(&mut out, n.raw()));
            tables
                .replica_positions()
                .iter()
                .for_each(|&p| word(&mut out, p));
            tables
                .mirror_nodes()
                .iter()
                .for_each(|n| word(&mut out, n.raw()));
            state.in_edges.put(None, &mut out);
            state.out_local_owner.put(&mut out);
            state.out_remote.put(&mut out);
        }
    }
    out
}

proptest! {
    /// Random sequences of the store edits a Migration attempt makes,
    /// inside an episode, on loader-built graphs with one weight and with a
    /// weight per edge: every edit leaves each mirror's block contiguous and
    /// what a message writes, and rollback gives back the graph the episode
    /// found — equal, the same bytes written out, every store at its length.
    #[test]
    fn block_rewrites_roll_back(
        weighted in any::<bool>(),
        k in 1usize..3,
        seed in 0u64..64,
        edits in proptest::collection::vec(edit(), 1..24),
    ) {
        let g = match weighted {
            true => gen::road_like(300, seed),
            false => gen::power_law(200, 2.0, 5, seed),
        };
        let degrees = Degrees::of(&g);
        let cut = HashEdgeCut.partition(&g, NODES);
        let ft = plan(&g, k, |v| cut.replica_parts(v).to_vec());
        let lgs = build_edge_cut_graphs(&g, &cut, &ft, &Count, &degrees);
        let donor = &lgs[dead().index()];
        let before = &lgs[0];
        let mut lg = before.clone();
        blocks_are_what_a_message_writes(&lg)?;
        lg.begin_episode();
        for edit in &edits {
            apply(&mut lg, donor, edit);
            blocks_are_what_a_message_writes(&lg)?;
        }
        lg.rollback();
        prop_assert!(lg == *before);
        prop_assert_eq!(snapshot(&lg), snapshot(before));
        prop_assert_eq!(ec_lens(&lg), ec_lens(before));
        blocks_are_what_a_message_writes(&lg)?;
    }
}

/// The block the slot of the copy at `pos` stores, its three runs back to
/// back.
fn stored_block(lg: &EcLocalGraph<u64>, pos: u32) -> Vec<u8> {
    let state = lg.stored_full_state(pos).expect("a copy with full state");
    let InEdges::Run(ins) = state.in_edges else {
        panic!("a slot stores runs");
    };
    let (fed, remote) = (state.out_local_owner.run(), state.out_remote.run());
    let runs = [Some(ins), fed, remote].map(|run| run.expect("a slot stores runs"));
    runs.iter().flat_map(|run| run.bytes()).copied().collect()
}

/// Every mirror, on a node other than `crashed`, of every master on such a
/// node stores the block its master exports when a record carries all
/// three lists, byte for byte. Returns how many mirrors it compared.
fn mirrors_store_what_masters_export(lgs: &[EcLocalGraph<u64>], crashed: Option<NodeId>) -> usize {
    let live = |n: NodeId| Some(n) != crashed;
    let mut compared = 0;
    for lg in lgs.iter().filter(|lg| live(lg.node)) {
        for pos in lg.master_positions() {
            let (batch, _) = lg.export_full_states(&[(pos, EdgeLists::ALL)]);
            let tables = lg.locations(pos).expect("masters carry full state");
            for m in tables.mirror_nodes().iter().filter(|&m| live(m)) {
                let holder = &lgs[m.index()];
                let at = tables
                    .replica_position_on(m)
                    .expect("a mirror is a replica");
                let mirror = &holder.verts[at as usize];
                assert_eq!(
                    (mirror.kind, mirror.master_node),
                    (CopyKind::Mirror, lg.node)
                );
                assert_eq!(
                    stored_block(holder, at),
                    batch.block(0),
                    "mirror on {m} of {}",
                    mirror.vid
                );
                compared += 1;
            }
        }
    }
    compared
}

/// What a Migration does to the survivors' full state, by hand, in the
/// protocol's order, inside an episode on every survivor: R1 promotes each
/// mirror of the dead node's masters on its first live mirror node and
/// purges the dead node from every master's tables; R2 re-points the remote
/// out-edges that named the dead node; R7 refreshes every mirror on a
/// survivor with its master's tables and the lists `changed_lists` names.
/// Then every episode commits.
fn migrate_survivors(lgs: &mut [EcLocalGraph<u64>]) {
    for lg in lgs.iter_mut().filter(|lg| lg.node != dead()) {
        let me = lg.node;
        lg.begin_episode();
        for pos in 0..lg.len() as u32 {
            let v = &lg.verts[pos as usize];
            if v.kind != CopyKind::Mirror || v.master_node != dead() {
                continue;
            }
            let tables = lg.locations(pos).expect("mirrors carry full state");
            if tables.mirror_nodes().iter().find(|&m| m != dead()) == Some(me) {
                lg.set_kind(pos, CopyKind::Master);
                lg.set_master_node(pos, me);
                lg.edit_locations(pos, |tables| tables.set_master_pos(pos));
            }
        }
        for pos in lg.master_positions().collect::<Vec<_>>() {
            lg.edit_locations(pos, |tables| {
                tables.purge_node(me);
                tables.purge_node(dead());
            });
            let mut remote = lg.full_state(pos).unwrap().out_remote.to_vec();
            for r in remote.iter_mut().filter(|r| r.consumer.raw() % 4 == 1) {
                r.consumer = Vid::new(r.consumer.raw() + 1);
            }
            lg.set_out_remote(pos, &remote);
        }
    }
    let mut refreshes = Vec::new();
    for lg in lgs.iter().filter(|lg| lg.node != dead()) {
        for pos in lg.master_positions() {
            let lists = lg.changed_lists(pos);
            let tables = lg.locations(pos).expect("masters carry full state");
            for m in tables.mirror_nodes().iter() {
                let at = tables
                    .replica_position_on(m)
                    .expect("a mirror is a replica");
                let (batch, lists) = lg.export_full_states(&[(pos, lists)]);
                refreshes.push((m, at, lg.node, batch, lists));
            }
        }
    }
    for (m, at, master, batch, lists) in refreshes {
        let holder = &mut lgs[m.index()];
        holder.set_master_node(at, master);
        holder.adopt_full_states(&[(&[at], &batch, &lists)]);
    }
    for lg in lgs.iter_mut().filter(|lg| lg.node != dead()) {
        lg.commit();
        lg.debug_validate();
    }
}

/// A master's exported block is what its mirrors store, byte for byte —
/// the remote run a copy of the master's own —, after load and after a
/// Migration episode, at K = 1 and 2, with one weight and a weight per edge.
#[test]
fn a_master_exports_the_block_its_mirrors_store() {
    for weighted in [false, true] {
        let g = match weighted {
            true => gen::road_like(600, 29),
            false => graph(),
        };
        let degrees = Degrees::of(&g);
        let cut = HashEdgeCut.partition(&g, NODES);
        for k in 1..=2 {
            let ft = plan(&g, k, |v| cut.replica_parts(v).to_vec());
            let mut lgs = build_edge_cut_graphs(&g, &cut, &ft, &Count, &degrees);
            let uniform = lgs[0].full_state_weights().uniform().is_some();
            assert_eq!(uniform, !weighted, "k={k}");
            assert!(mirrors_store_what_masters_export(&lgs, None) > 100, "k={k}");
            migrate_survivors(&mut lgs);
            assert!(
                mirrors_store_what_masters_export(&lgs, Some(dead())) > 50,
                "k={k}"
            );
        }
    }
}

/// A promotion turns a mirror into a master and writes no byte of its
/// slot; rewriting the promoted masters' remote out-edges writes new
/// blocks, and rollback gives every slot back the block it had.
#[test]
fn a_promotion_writes_no_byte_and_rollback_restores_every_row() {
    let g = graph();
    let degrees = Degrees::of(&g);
    let cut = HashEdgeCut.partition(&g, NODES);
    for k in 1..=2 {
        let ft = plan(&g, k, |v| cut.replica_parts(v).to_vec());
        let lgs = build_edge_cut_graphs(&g, &cut, &ft, &Count, &degrees);
        for before in lgs.iter().filter(|lg| lg.node != dead()) {
            let mut lg = before.clone();
            lg.begin_episode();
            let runs = lg.full_state_lens().runs;
            let orphans = copies(&lg, |v| {
                v.kind == CopyKind::Mirror && v.master_node == dead()
            });
            assert!(!orphans.is_empty(), "k={k}");
            for &pos in &orphans {
                lg.set_kind(pos, CopyKind::Master);
                lg.set_master_node(pos, lg.node);
                assert_eq!(stored_block(&lg, pos), stored_block(before, pos));
                assert_eq!(lg.changed_lists(pos), EdgeLists::ALL);
            }
            assert_eq!(
                lg.full_state_lens().runs,
                runs,
                "k={k}: a promotion writes no byte"
            );
            for &pos in &orphans {
                let kept = lg.stored_full_state(pos).unwrap();
                let mut remote = kept.out_remote.to_vec();
                let moved = kept.out_local_owner.iter().map(|c| RemoteEdge {
                    consumer: Vid::new(c),
                });
                remote.extend(moved);
                remote.push(RemoteEdge {
                    consumer: Vid::new(pos),
                });
                assert!(lg.set_out_remote(pos, &remote));
            }
            assert!(lg.full_state_lens().runs > runs, "k={k}");
            lg.rollback();
            for pos in (0..lg.len() as u32).filter(|&p| lg.verts[p as usize].meta.is_some()) {
                assert_eq!(stored_block(&lg, pos), stored_block(before, pos), "k={k}");
            }
            assert!(lg == *before && ec_lens(&lg) == ec_lens(before), "k={k}");
        }
    }
}

/// Inside an episode a master's remote out-edges count as changed exactly
/// when they were rewritten: writing the list it holds writes nothing.
#[test]
fn changed_lists_name_the_remote_run_exactly_when_it_was_rewritten() {
    let g = graph();
    let degrees = Degrees::of(&g);
    let cut = HashEdgeCut.partition(&g, NODES);
    let ft = plan(&g, 1, |v| cut.replica_parts(v).to_vec());
    for mut lg in build_edge_cut_graphs(&g, &cut, &ft, &Count, &degrees) {
        let runs = lg.full_state_lens().runs;
        lg.begin_episode();
        let masters: Vec<u32> = lg.master_positions().collect();
        for &pos in &masters {
            let mut remote = lg.full_state(pos).unwrap().out_remote.to_vec();
            if pos % 3 == 1 {
                remote.push(RemoteEdge {
                    consumer: Vid::new(pos),
                });
            }
            if pos % 3 != 2 {
                assert_eq!(lg.set_out_remote(pos, &remote), pos % 3 == 1);
            }
        }
        let rewritten = masters.iter().filter(|&&pos| pos % 3 == 1).count();
        assert!(rewritten > 0 && lg.full_state_lens().runs > runs);
        for &pos in &masters {
            let changed = lg.changed_lists(pos).contains(EdgeLists::OUT_REMOTE);
            assert_eq!(changed, pos % 3 == 1, "master at {pos}");
        }
        lg.commit();
        assert_eq!(lg.changed_lists(masters[0]), EdgeLists::ALL, "no episode");
    }
}
