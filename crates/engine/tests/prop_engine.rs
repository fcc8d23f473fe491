//! Property tests of the engine substrate: local-graph construction
//! invariants over arbitrary graphs, partitionings and FT plans, and
//! equivalence of the two engines' compute semantics against a sequential
//! reference.

use proptest::prelude::*;

use imitator_cluster::NodeId;

use imitator_engine::{
    build_edge_cut_graphs, build_vertex_cut_graphs, ec_commit, ec_compute, ec_compute_scan,
    vc_apply, vc_commit, vc_partial_gather, CopyKind, Degrees, FtPlan, MasterUpdate, VertexProgram,
};
use imitator_graph::{gen, Graph, Ragged, Vid};
use imitator_partition::{
    EdgeCutPartitioner, HashEdgeCut, HybridVertexCut, RandomVertexCut, VertexCutPartitioner,
};

struct MinLabel;

impl VertexProgram for MinLabel {
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

    fn apply(&self, _v: Vid, old: &u32, acc: Option<u32>, _d: &Degrees) -> u32 {
        acc.map_or(*old, |a| a.min(*old))
    }

    fn scatter(&self, _v: Vid, old: &u32, new: &u32) -> bool {
        new < old
    }
}

/// PageRank as `imitator-algos` runs it: `(rank, rank / out-degree)`, every
/// master recomputed every superstep. A vertex nobody points at settles at
/// `1 − d` after one.
struct PageRank;

impl VertexProgram for PageRank {
    type Value = (f64, f64);
    type Accum = f64;

    fn init(&self, vid: Vid, d: &Degrees) -> (f64, f64) {
        (1.0, 1.0 / f64::from(d.out_degree(vid).max(1)))
    }

    fn gather(&self, _w: f32, src: &(f64, f64)) -> f64 {
        src.1
    }

    fn combine(&self, a: f64, b: f64) -> f64 {
        a + b
    }

    fn apply(&self, vid: Vid, _old: &(f64, f64), acc: Option<f64>, d: &Degrees) -> (f64, f64) {
        let rank = 0.15 + 0.85 * acc.unwrap_or(0.0);
        (rank, rank / f64::from(d.out_degree(vid).max(1)))
    }

    fn scatter(&self, _v: Vid, _old: &(f64, f64), _new: &(f64, f64)) -> bool {
        true
    }
}

/// Fails on an update that would re-ship the value its master already holds.
fn assert_all_changed<V: PartialEq + std::fmt::Debug>(
    held: impl Fn(u32) -> V,
    updates: &[MasterUpdate<V>],
    from: &str,
) -> Result<(), TestCaseError> {
    for u in updates {
        let held = held(u.local);
        prop_assert!(
            u.value != held,
            "{from} re-ships position {}: {held:?}",
            u.local
        );
    }
    Ok(())
}

/// Runs `prog` for `steps` edge-cut supersteps, checking every update of
/// `ec_compute`, and that the frontier kernel stages exactly what the full
/// scan does.
fn ec_updates_all_differ<P: VertexProgram>(
    g: &Graph,
    parts: usize,
    steps: u64,
    prog: P,
) -> Result<(), TestCaseError>
where
    P::Value: Copy,
{
    let degrees = Degrees::of(g);
    let plan = FtPlan::none(g.num_vertices());
    let cut = HashEdgeCut.partition(g, parts);
    let mut lgs = build_edge_cut_graphs(g, &cut, &plan, &prog, &degrees);
    for step in 0..steps {
        let mut all = Vec::new();
        for lg in &lgs {
            let held = |pos: u32| lg.verts[pos as usize].value;
            let updates = ec_compute(lg, &prog, &degrees, step);
            assert_all_changed(held, &updates, "ec_compute")?;
            prop_assert_eq!(&updates, &ec_compute_scan(lg, &prog, &degrees, step));
            all.push(updates);
        }
        let mut incoming: Vec<Vec<(u32, P::Value, bool)>> = vec![Vec::new(); parts];
        for (p, ups) in all.iter().enumerate() {
            for u in ups {
                let vid = lgs[p].verts[u.local as usize].vid;
                for r in lgs[p].locations(u.local).unwrap().replica_nodes() {
                    let pos = lgs[r.index()].position(vid).unwrap();
                    incoming[r.index()].push((pos, u.value, u.activate));
                }
            }
        }
        for (lg, (ups, inc)) in lgs.iter_mut().zip(all.into_iter().zip(incoming)) {
            ec_commit(lg, &prog, ups, inc);
        }
    }
    Ok(())
}

/// The vertex-cut twin: every update of `vc_apply`.
fn vc_updates_all_differ<P: VertexProgram>(
    g: &Graph,
    parts: usize,
    steps: u64,
    prog: P,
) -> Result<(), TestCaseError>
where
    P::Value: Copy,
{
    let degrees = Degrees::of(g);
    let plan = FtPlan::none(g.num_vertices());
    let cut = RandomVertexCut.partition(g, parts);
    let mut lgs = build_vertex_cut_graphs(g, &cut, &plan, &prog, &degrees);
    for step in 0..steps {
        let mut acc: Vec<Vec<Option<P::Accum>>> =
            lgs.iter().map(|lg| vec![None; lg.verts.len()]).collect();
        for lg in &lgs {
            for (pos, a) in vc_partial_gather(lg, &prog).into_iter().enumerate() {
                let Some(a) = a else { continue };
                let v = &lg.verts[pos];
                let owner = v.master_node.index();
                let mpos = lgs[owner].position(v.vid).unwrap() as usize;
                let slot = &mut acc[owner][mpos];
                *slot = Some(match slot.take() {
                    None => a,
                    Some(x) => prog.combine(x, a),
                });
            }
        }
        let mut all = Vec::new();
        for (lg, acc) in lgs.iter().zip(acc) {
            let updates = vc_apply(lg, &prog, acc, &degrees, step);
            let held = |pos: u32| lg.verts[pos as usize].value;
            assert_all_changed(held, &updates, "vc_apply")?;
            all.push(updates);
        }
        let mut incoming: Vec<Vec<(u32, P::Value)>> = vec![Vec::new(); parts];
        for (p, ups) in all.iter().enumerate() {
            for u in ups {
                let vid = lgs[p].verts[u.local as usize].vid;
                for r in lgs[p].locations(u.local).unwrap().replica_nodes() {
                    let pos = lgs[r.index()].position(vid).unwrap();
                    incoming[r.index()].push((pos, u.value));
                }
            }
        }
        for (lg, (ups, inc)) in lgs.iter_mut().zip(all.into_iter().zip(incoming)) {
            vc_commit(lg, ups, inc);
        }
    }
    Ok(())
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        3usize..60,
        proptest::collection::vec((any::<u32>(), any::<u32>()), 0..200),
    )
        .prop_map(|(n, pairs)| {
            let pairs: Vec<(u32, u32)> = pairs
                .into_iter()
                .map(|(a, b)| (a % n as u32, b % n as u32))
                .collect();
            gen::from_pairs(n, &pairs)
        })
}

/// A plan with K mirrors per vertex, built naively for testing (first K
/// replica locations, extras round-robin).
fn naive_plan(g: &Graph, cut: &imitator_partition::EdgeCut, k: usize) -> FtPlan {
    let parts = cut.num_parts();
    let (mut mirror, mut extra_replicas) = (Vec::new(), Vec::new());
    for v in g.vertices() {
        let mut mirrors: Vec<NodeId> = cut
            .replica_parts(v)
            .iter()
            .take(k)
            .map(|&p| NodeId::new(p))
            .collect();
        let mut extras = Vec::new();
        let mut candidate = 0usize;
        while mirrors.len() < k {
            let node = NodeId::from_index(candidate % parts);
            candidate += 1;
            if node.index() == cut.owner(v) || mirrors.contains(&node) {
                continue;
            }
            extras.push(node);
            mirrors.push(node);
        }
        mirror.push(mirrors);
        extra_replicas.push(extras);
    }
    FtPlan {
        mirror: Ragged::from_rows(&mirror),
        extra_replicas: Ragged::from_rows(&extra_replicas),
        selfish: vec![false; g.num_vertices()],
    }
}

fn min_label_reference(g: &Graph, iters: usize) -> Vec<u32> {
    let mut vals: Vec<u32> = (0..g.num_vertices() as u32).collect();
    for _ in 0..iters {
        let prev = vals.clone();
        for e in g.edges() {
            let s = prev[e.src.index()];
            if s < vals[e.dst.index()] {
                vals[e.dst.index()] = s;
            }
        }
    }
    vals
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn ec_builder_invariants_hold_with_ft_plans(
        (g, parts, k) in (arb_graph(), 2usize..6, 0usize..3)
    ) {
        prop_assume!(k < parts);
        let cut = HashEdgeCut.partition(&g, parts);
        let plan = if k == 0 {
            FtPlan::none(g.num_vertices())
        } else {
            naive_plan(&g, &cut, k)
        };
        let degrees = Degrees::of(&g);
        let lgs = build_edge_cut_graphs(&g, &cut, &plan, &MinLabel, &degrees);
        let mut masters = 0usize;
        let mut mirrors = 0usize;
        for lg in &lgs {
            lg.debug_validate();
            masters += lg.num_masters();
            mirrors += lg
                .verts
                .iter()
                .filter(|v| v.kind == CopyKind::Mirror)
                .count();
            // Every mirror carries full state identical to its master's.
            for (pos, v) in lg.verts.iter().enumerate() {
                if v.kind == CopyKind::Mirror {
                    let owner = &lgs[v.master_node.index()];
                    let mpos = owner.position(v.vid).unwrap();
                    prop_assert!(lg.full_state(pos as u32).is_some());
                    prop_assert_eq!(lg.full_state(pos as u32), owner.full_state(mpos));
                }
            }
        }
        prop_assert_eq!(masters, g.num_vertices());
        if k > 0 {
            prop_assert_eq!(mirrors, g.num_vertices() * k);
        }
        // Total in-edges across nodes equals |E|.
        let in_edges: usize = lgs
            .iter()
            .flat_map(|lg| (0..lg.len() as u32).map(|pos| lg.in_edges(pos).len()))
            .sum();
        prop_assert_eq!(in_edges, g.num_edges());
    }

    #[test]
    fn vc_builder_invariants_hold(
        (g, parts, theta) in (arb_graph(), 2usize..6, 0usize..10)
    ) {
        let degrees = Degrees::of(&g);
        for cut in [
            RandomVertexCut.partition(&g, parts),
            HybridVertexCut::with_threshold(theta).partition(&g, parts),
        ] {
            let plan = FtPlan::none(g.num_vertices());
            let lgs = build_vertex_cut_graphs(&g, &cut, &plan, &MinLabel, &degrees);
            for lg in &lgs {
                lg.debug_validate();
            }
            let masters: usize = lgs.iter().map(|lg| lg.num_masters()).sum();
            prop_assert_eq!(masters, g.num_vertices());
            let edges: usize = lgs.iter().map(|lg| lg.edges.len()).sum();
            prop_assert_eq!(edges, g.num_edges());
        }
    }

    /// Both engines, driven single-threaded to a fixpoint, agree with the
    /// sequential reference on arbitrary graphs.
    #[test]
    fn engines_match_sequential_reference((g, parts) in (arb_graph(), 1usize..5)) {
        let iters = g.num_vertices() + 2;
        let expected = min_label_reference(&g, iters);
        let degrees = Degrees::of(&g);
        let plan = FtPlan::none(g.num_vertices());

        // Edge-cut.
        let cut = HashEdgeCut.partition(&g, parts);
        let mut lgs = build_edge_cut_graphs(&g, &cut, &plan, &MinLabel, &degrees);
        for step in 0..iters as u64 {
            let all: Vec<_> = lgs
                .iter()
                .map(|lg| ec_compute(lg, &MinLabel, &degrees, step))
                .collect();
            let mut incoming: Vec<Vec<(u32, u32, bool)>> = vec![Vec::new(); parts];
            for (p, ups) in all.iter().enumerate() {
                for u in ups {
                    let v = &lgs[p].verts[u.local as usize];
                    for r in lgs[p].locations(u.local).unwrap().replica_nodes() {
                        let pos = lgs[r.index()].position(v.vid).unwrap();
                        incoming[r.index()].push((pos, u.value, u.activate));
                    }
                }
            }
            let mut active = 0;
            for (p, (ups, inc)) in all.into_iter().zip(incoming).enumerate() {
                active += ec_commit(&mut lgs[p], &MinLabel, ups, inc).active_next;
            }
            if active == 0 {
                break;
            }
        }
        let mut got = vec![0u32; g.num_vertices()];
        for lg in &lgs {
            for v in lg.verts.iter().filter(|v| v.is_master()) {
                got[v.vid.index()] = v.value;
            }
        }
        prop_assert_eq!(&got, &expected, "edge-cut diverged");

        // Vertex-cut (dense).
        let cut = RandomVertexCut.partition(&g, parts);
        let mut lgs = build_vertex_cut_graphs(&g, &cut, &plan, &MinLabel, &degrees);
        for step in 0..iters as u64 {
            let partials: Vec<_> = lgs
                .iter()
                .map(|lg| vc_partial_gather(lg, &MinLabel))
                .collect();
            let mut acc: Vec<Vec<Option<u32>>> =
                lgs.iter().map(|lg| vec![None; lg.verts.len()]).collect();
            for (p, partial) in partials.into_iter().enumerate() {
                for (pos, a) in partial.into_iter().enumerate() {
                    let Some(a) = a else { continue };
                    let v = &lgs[p].verts[pos];
                    let owner = v.master_node.index();
                    let mpos = lgs[owner].position(v.vid).unwrap() as usize;
                    let slot = &mut acc[owner][mpos];
                    *slot = Some(match slot.take() {
                        None => a,
                        Some(x) => MinLabel.combine(x, a),
                    });
                }
            }
            let all: Vec<_> = lgs
                .iter()
                .zip(acc)
                .map(|(lg, a)| vc_apply(lg, &MinLabel, a, &degrees, step))
                .collect();
            let mut incoming: Vec<Vec<(u32, u32)>> = vec![Vec::new(); parts];
            for (p, ups) in all.iter().enumerate() {
                for u in ups {
                    let v = &lgs[p].verts[u.local as usize];
                    for r in lgs[p].locations(u.local).unwrap().replica_nodes() {
                        let pos = lgs[r.index()].position(v.vid).unwrap();
                        incoming[r.index()].push((pos, u.value));
                    }
                }
            }
            let mut changed = 0;
            for (p, (ups, inc)) in all.into_iter().zip(incoming).enumerate() {
                changed += vc_commit(&mut lgs[p], ups, inc).changed;
            }
            if changed == 0 {
                break;
            }
        }
        let mut got = vec![0u32; g.num_vertices()];
        for lg in &lgs {
            for v in lg.verts.iter().filter(|v| v.is_master()) {
                got[v.vid.index()] = v.value;
            }
        }
        prop_assert_eq!(&got, &expected, "vertex-cut diverged");
    }

    /// The rule every byte of sync accounting rests on (DESIGN.md §4.1): a
    /// master that does not change sends nothing. No update either engine
    /// emits carries the value its master already holds — not MinLabel's
    /// settled labels, not PageRank's sourceless vertices, which hold `1 − d`
    /// from the first superstep on.
    #[test]
    fn no_update_carries_the_committed_value((g, parts) in (arb_graph(), 1usize..5)) {
        let steps = 6;
        ec_updates_all_differ(&g, parts, steps, MinLabel)?;
        ec_updates_all_differ(&g, parts, steps, PageRank)?;
        vc_updates_all_differ(&g, parts, steps, MinLabel)?;
        vc_updates_all_differ(&g, parts, steps, PageRank)?;
    }
}
