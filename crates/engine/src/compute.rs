//! Pure single-node compute steps.
//!
//! These functions never touch the network: the distributed runner in the
//! `imitator` crate calls them between message exchanges and barriers
//! (Algorithm 1). Keeping them pure makes rollback trivial — on a failure
//! detected at the barrier, the runner simply discards the returned staging
//! buffers and recomputes the iteration after recovery.

use crate::ecut::EcLocalGraph;
use crate::program::{Degrees, VertexProgram};
use crate::vcut::VcLocalGraph;

/// A staged master update produced by a compute step: nothing is committed
/// until the runner has passed the global barrier cleanly.
#[derive(Debug, Clone, PartialEq)]
pub struct MasterUpdate<V> {
    /// Local position of the master.
    pub local: u32,
    /// The new value.
    pub value: V,
    /// The scatter decision: whether consumers are activated next iteration.
    pub activate: bool,
}

/// Commit-time statistics driving convergence and the paper's overhead
/// accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitStats {
    /// Masters whose value changed this iteration.
    pub changed: usize,
    /// Masters active for the next iteration.
    pub active_next: usize,
}

/// Edge-cut compute phase (Algorithm 1 line 5): every *active* master
/// gathers its in-neighbours' committed values through purely local reads
/// (that is the point of the replicas), applies, and stages an update when
/// the value changed.
///
/// Iterates the sparse activation frontier maintained by [`ec_commit`], so
/// cost is O(frontier + edges touched) rather than O(|verts|). The frontier
/// is sorted ascending, so updates come out in the same position order as
/// the historical full scan ([`ec_compute_scan`]) — bit-identical results.
///
/// Contributions fold in in-edge order, which is fixed at construction and
/// reproduced exactly by recovery — runs are bit-deterministic.
pub fn ec_compute<P: VertexProgram>(
    lg: &EcLocalGraph<P::Value>,
    prog: &P,
    degrees: &Degrees,
    step: u64,
) -> Vec<MasterUpdate<P::Value>> {
    let mut updates = Vec::new();
    for &pos in &lg.active_frontier {
        let v = &lg.verts[pos as usize];
        debug_assert!(
            v.is_master() && v.active,
            "frontier entry not active master"
        );
        let mut acc: Option<P::Accum> = None;
        for &(src, w) in lg.in_edges(pos) {
            let contribution = prog.gather(w, &lg.verts[src as usize].value);
            acc = Some(match acc {
                None => contribution,
                Some(a) => prog.combine(a, contribution),
            });
        }
        let new = prog.apply_step(v.vid, &v.value, acc, degrees, step);
        if new != v.value {
            let activate = prog.scatter(v.vid, &v.value, &new);
            updates.push(MasterUpdate {
                local: pos,
                value: new,
                activate,
            });
        }
    }
    updates
}

/// The historical dense compute phase: scans every local copy and computes
/// active masters. Produces exactly the same updates as [`ec_compute`]
/// (kept as the frontier path's reference, and as a baseline for benches).
pub fn ec_compute_scan<P: VertexProgram>(
    lg: &EcLocalGraph<P::Value>,
    prog: &P,
    degrees: &Degrees,
    step: u64,
) -> Vec<MasterUpdate<P::Value>> {
    let mut updates = Vec::new();
    for (pos, v) in lg.verts.iter().enumerate() {
        if !v.is_master() || !v.active {
            continue;
        }
        let mut acc: Option<P::Accum> = None;
        for &(src, w) in lg.in_edges(pos as u32) {
            let contribution = prog.gather(w, &lg.verts[src as usize].value);
            acc = Some(match acc {
                None => contribution,
                Some(a) => prog.combine(a, contribution),
            });
        }
        let new = prog.apply_step(v.vid, &v.value, acc, degrees, step);
        if new != v.value {
            let activate = prog.scatter(v.vid, &v.value, &new);
            updates.push(MasterUpdate {
                local: pos as u32,
                value: new,
                activate,
            });
        }
    }
    updates
}

/// Edge-cut commit phase (Algorithm 1 line 14): applies this node's own
/// staged updates and the replica updates received from remote masters,
/// propagates activation to local consumers, and rolls the activation front
/// forward.
///
/// `replica_updates` entries are `(local position, value, activate)`.
pub fn ec_commit<P: VertexProgram>(
    lg: &mut EcLocalGraph<P::Value>,
    prog: &P,
    my_updates: Vec<MasterUpdate<P::Value>>,
    replica_updates: Vec<(u32, P::Value, bool)>,
) -> CommitStats {
    let _ = prog;
    let changed = my_updates.len();
    // Retire the old frontier, reusing its allocation as the touched list.
    // Only frontier positions can have `active == true` (the canonical
    // invariant), so clearing them is equivalent to the historical full
    // `active = next_active` sweep.
    let mut touched = std::mem::take(&mut lg.active_frontier);
    for &p in &touched {
        lg.verts[p as usize].active = false;
    }
    touched.clear();
    for u in my_updates {
        commit_update(lg, u.local as usize, u.value, u.activate, &mut touched);
    }
    for (pos, value, activate) in replica_updates {
        commit_update(lg, pos as usize, value, activate, &mut touched);
    }
    // Touched positions (deduped via the `next_active` bit, always masters —
    // activation targets are masters by construction) become the sorted new
    // frontier; everything else already has both bits clear.
    touched.sort_unstable();
    for &p in &touched {
        let v = &mut lg.verts[p as usize];
        v.active = true;
        v.next_active = false;
    }
    let active_next = touched.len();
    lg.active_frontier = touched;
    CommitStats {
        changed,
        active_next,
    }
}

/// Applies one committed update (own master or replica sync alike): stores
/// the value and scatter bit, then propagates activation to local consumers,
/// recording each newly touched position once (`next_active` doubles as the
/// dedupe filter until [`ec_commit`] clears it).
fn commit_update<V>(
    lg: &mut EcLocalGraph<V>,
    pos: usize,
    value: V,
    activate: bool,
    touched: &mut Vec<u32>,
) {
    let v = &mut lg.verts[pos];
    v.value = value;
    v.last_activate = activate;
    if activate {
        for &t in lg.hot_out.get(v.out_local) {
            let target = &mut lg.verts[t as usize];
            if !target.next_active {
                target.next_active = true;
                touched.push(t);
            }
        }
    }
}

/// Vertex-cut local gather: folds this node's owned edges into one partial
/// accumulator per locally present target vertex (`None` when no local edge
/// contributed). Edge order is fixed at construction, so partials are
/// deterministic.
///
/// The PowerLyra engine here runs *dense* (every vertex recomputes each
/// iteration), which is exactly how the paper's vertex-cut evaluation
/// (§6.10, PageRank only) exercises it.
pub fn vc_partial_gather<P: VertexProgram>(
    lg: &VcLocalGraph<P::Value>,
    prog: &P,
) -> Vec<Option<P::Accum>> {
    let mut partials: Vec<Option<P::Accum>> = vec![None; lg.verts.len()];
    for e in &lg.edges {
        let contribution = prog.gather(e.weight, &lg.verts[e.src as usize].value);
        let slot = &mut partials[e.dst as usize];
        *slot = Some(match slot.take() {
            None => contribution,
            Some(a) => prog.combine(a, contribution),
        });
    }
    partials
}

/// Vertex-cut apply: masters consume their fully combined accumulator and
/// stage an update when the value changed.
///
/// `acc` is indexed by local position and must already combine the local
/// partial with all remote partials (the runner merges them in node-ID
/// order for determinism).
pub fn vc_apply<P: VertexProgram>(
    lg: &VcLocalGraph<P::Value>,
    prog: &P,
    acc: Vec<Option<P::Accum>>,
    degrees: &Degrees,
    step: u64,
) -> Vec<MasterUpdate<P::Value>> {
    assert_eq!(acc.len(), lg.verts.len(), "accumulator table size mismatch");
    let mut updates = Vec::new();
    for (slot, (pos, v)) in acc.into_iter().zip(lg.verts.iter().enumerate()) {
        if !v.is_master() {
            continue;
        }
        let new = prog.apply_step(v.vid, &v.value, slot, degrees, step);
        if new != v.value {
            let activate = prog.scatter(v.vid, &v.value, &new);
            updates.push(MasterUpdate {
                local: pos as u32,
                value: new,
                activate,
            });
        }
    }
    updates
}

/// Vertex-cut commit: applies staged master updates and received replica
/// updates (`(local position, value)`); returns the number of local masters
/// that changed (the convergence signal).
pub fn vc_commit<V: Clone + PartialEq>(
    lg: &mut VcLocalGraph<V>,
    my_updates: Vec<MasterUpdate<V>>,
    replica_updates: Vec<(u32, V)>,
) -> CommitStats {
    let changed = my_updates.len();
    for u in my_updates {
        lg.verts[u.local as usize].value = u.value;
    }
    for (pos, value) in replica_updates {
        lg.verts[pos as usize].value = value;
    }
    CommitStats {
        changed,
        active_next: changed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecut::build_edge_cut_graphs;
    use crate::ftplan::FtPlan;
    use crate::vcut::build_vertex_cut_graphs;
    use imitator_graph::{gen, Vid};
    use imitator_partition::{
        EdgeCutPartitioner, HashEdgeCut, RandomVertexCut, VertexCutPartitioner,
    };

    /// Min-label propagation: converges to the minimum reachable label —
    /// easy to check against a sequential reference.
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

    /// Sequential reference for min-label propagation.
    fn min_label_reference(g: &imitator_graph::Graph, iters: usize) -> Vec<u32> {
        let mut vals: Vec<u32> = (0..g.num_vertices() as u32).collect();
        for _ in 0..iters {
            let prev = vals.clone();
            for e in g.edges() {
                let s = prev[e.src.index()];
                if s < vals[e.dst.index()] {
                    vals[e.dst.index()] = vals[e.dst.index()].min(s);
                }
            }
        }
        vals
    }

    /// Drives the edge-cut engine single-threaded (no cluster): compute on
    /// every node, route updates to replicas by hand, commit.
    fn run_ec_local(g: &imitator_graph::Graph, parts: usize, iters: usize) -> Vec<u32> {
        let cut = HashEdgeCut.partition(g, parts);
        let plan = FtPlan::none(g.num_vertices());
        let degrees = Degrees::of(g);
        let mut lgs = build_edge_cut_graphs(g, &cut, &plan, &MinLabel, &degrees);
        for _ in 0..iters {
            let all_updates: Vec<_> = lgs
                .iter()
                .map(|lg| ec_compute(lg, &MinLabel, &degrees, 0))
                .collect();
            // route replica updates
            let mut replica_updates: Vec<Vec<(u32, u32, bool)>> = vec![Vec::new(); parts];
            for (p, updates) in all_updates.iter().enumerate() {
                for u in updates {
                    let v = &lgs[p].verts[u.local as usize];
                    for r in lgs[p].locations(u.local).unwrap().replica_nodes() {
                        let pos = lgs[r.index()].position(v.vid).unwrap();
                        replica_updates[r.index()].push((pos, u.value, u.activate));
                    }
                }
            }
            let mut total_active = 0;
            for (p, (updates, incoming)) in all_updates.into_iter().zip(replica_updates).enumerate()
            {
                let stats = ec_commit(&mut lgs[p], &MinLabel, updates, incoming);
                total_active += stats.active_next;
            }
            if total_active == 0 {
                break;
            }
        }
        let mut out = vec![0u32; g.num_vertices()];
        for lg in &lgs {
            for v in lg.verts.iter().filter(|v| v.is_master()) {
                out[v.vid.index()] = v.value;
            }
        }
        out
    }

    #[test]
    fn edge_cut_matches_sequential_reference() {
        let g = gen::power_law(400, 2.0, 5, 3);
        let expected = min_label_reference(&g, 50);
        let got = run_ec_local(&g, 4, 50);
        assert_eq!(got, expected);
    }

    #[test]
    fn edge_cut_single_part_matches_reference() {
        let g = gen::community_like(200, 10, 5);
        assert_eq!(run_ec_local(&g, 1, 60), min_label_reference(&g, 60));
    }

    #[test]
    fn activation_front_goes_quiet() {
        // A chain 0 -> 1 -> 2 -> 3: label 0 flows down in 3 iterations and
        // the computation then stops by itself.
        let g = gen::from_pairs(4, &[(0, 1), (1, 2), (2, 3)]);
        let got = run_ec_local(&g, 2, 100);
        assert_eq!(got, vec![0, 0, 0, 0]);
    }

    #[test]
    fn inactive_masters_do_not_compute() {
        let g = gen::from_pairs(2, &[(0, 1)]);
        let cut = HashEdgeCut.partition(&g, 1);
        let degrees = Degrees::of(&g);
        let plan = FtPlan::none(2);
        let mut lgs = build_edge_cut_graphs(&g, &cut, &plan, &MinLabel, &degrees);
        // First iteration changes v1 (0 < 1); second has nothing to do.
        let u1 = ec_compute(&lgs[0], &MinLabel, &degrees, 0);
        assert_eq!(u1.len(), 1);
        ec_commit(&mut lgs[0], &MinLabel, u1, Vec::new());
        let u2 = ec_compute(&lgs[0], &MinLabel, &degrees, 1);
        assert!(u2.is_empty());
    }

    /// Drives the vertex-cut engine single-threaded.
    fn run_vc_local(g: &imitator_graph::Graph, parts: usize, iters: usize) -> Vec<u32> {
        let cut = RandomVertexCut.partition(g, parts);
        let plan = FtPlan::none(g.num_vertices());
        let degrees = Degrees::of(g);
        let mut lgs = build_vertex_cut_graphs(g, &cut, &plan, &MinLabel, &degrees);
        for _ in 0..iters {
            let partials: Vec<_> = lgs
                .iter()
                .map(|lg| vc_partial_gather(lg, &MinLabel))
                .collect();
            // Combine partials at masters in node order.
            let mut combined: Vec<Vec<Option<u32>>> =
                lgs.iter().map(|lg| vec![None; lg.verts.len()]).collect();
            for (p, partial) in partials.into_iter().enumerate() {
                for (pos, acc) in partial.into_iter().enumerate() {
                    let Some(acc) = acc else { continue };
                    let v = &lgs[p].verts[pos];
                    let owner = v.master_node.index();
                    let mpos = lgs[owner].position(v.vid).unwrap() as usize;
                    let slot = &mut combined[owner][mpos];
                    *slot = Some(match slot.take() {
                        None => acc,
                        Some(a) => MinLabel.combine(a, acc),
                    });
                }
            }
            let mut changed_total = 0;
            let all_updates: Vec<_> = lgs
                .iter()
                .zip(combined)
                .map(|(lg, acc)| vc_apply(lg, &MinLabel, acc, &degrees, 0))
                .collect();
            let mut replica_updates: Vec<Vec<(u32, u32)>> = vec![Vec::new(); parts];
            for (p, updates) in all_updates.iter().enumerate() {
                for u in updates {
                    let v = &lgs[p].verts[u.local as usize];
                    for r in lgs[p].locations(u.local).unwrap().replica_nodes() {
                        let pos = lgs[r.index()].position(v.vid).unwrap();
                        replica_updates[r.index()].push((pos, u.value));
                    }
                }
            }
            for (p, (updates, incoming)) in all_updates.into_iter().zip(replica_updates).enumerate()
            {
                changed_total += vc_commit(&mut lgs[p], updates, incoming).changed;
            }
            if changed_total == 0 {
                break;
            }
        }
        let mut out = vec![0u32; g.num_vertices()];
        for lg in &lgs {
            for v in lg.verts.iter().filter(|v| v.is_master()) {
                out[v.vid.index()] = v.value;
            }
        }
        out
    }

    #[test]
    fn vertex_cut_matches_sequential_reference() {
        let g = gen::power_law(400, 2.0, 5, 19);
        assert_eq!(run_vc_local(&g, 4, 60), min_label_reference(&g, 60));
    }

    #[test]
    fn vertex_cut_and_edge_cut_agree() {
        let g = gen::community_like(300, 12, 23);
        assert_eq!(run_vc_local(&g, 3, 80), run_ec_local(&g, 5, 80));
    }
}
