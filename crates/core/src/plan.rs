//! Fault-tolerance replica placement (§4).
//!
//! Given an existing partitioning's replica sets, this module decides, per
//! vertex:
//!
//! * which `K` replica locations become **mirrors** (full-state replicas,
//!   §4.2) — chosen greedily so every machine hosts a similar number of
//!   mirrors, which keeps recovery parallel (§6.5);
//! * where to create **extra FT replicas** for vertices with fewer than `K`
//!   replicas (§4.1) — a small random candidate set is drawn and the least
//!   loaded candidate wins ("power of choices", §1);
//! * which vertices are **selfish** (§4.4) — no out-edges and a program
//!   whose values are recomputable from in-neighbours; they get FT replicas
//!   but are never synchronised during normal execution.

use imitator_cluster::NodeId;
use imitator_engine::{Degrees, FtPlan, LocationsRef};
use imitator_graph::{Graph, Ragged, Vid};
use imitator_partition::{EdgeCut, VertexCut};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// First surviving node in `meta`'s mirror-ID order — the one responsible
/// for recovering the master without any election traffic (§5.3.1).
///
/// Returns `None` when every mirror is dead (an unrecoverable episode under
/// replication FT — more simultaneous failures than the tolerance level).
pub fn responsible_mirror(meta: LocationsRef<'_>, alive: &[bool]) -> Option<NodeId> {
    meta.mirror_nodes().iter().find(|m| alive[m.index()])
}

/// A partitioning's view of master/replica placement, abstracting over
/// edge-cut and vertex-cut.
pub trait ReplicaView {
    /// Number of parts.
    fn num_parts(&self) -> usize;
    /// Part mastering `v`.
    fn master_part(&self, v: Vid) -> usize;
    /// Parts holding a replica of `v` (excluding the master part).
    fn replica_parts(&self, v: Vid) -> &[u32];
}

impl ReplicaView for EdgeCut {
    fn num_parts(&self) -> usize {
        self.num_parts()
    }

    fn master_part(&self, v: Vid) -> usize {
        self.owner(v)
    }

    fn replica_parts(&self, v: Vid) -> &[u32] {
        self.replica_parts(v)
    }
}

impl ReplicaView for VertexCut {
    fn num_parts(&self) -> usize {
        self.num_parts()
    }

    fn master_part(&self, v: Vid) -> usize {
        self.master(v)
    }

    fn replica_parts(&self, v: Vid) -> &[u32] {
        self.replica_parts(v)
    }
}

/// What a plan reads of the graph itself: how many vertices there are and
/// which of them have no out-edge — the selfish candidates of §4.4.
pub trait OutDegrees {
    /// Number of vertices.
    fn num_vertices(&self) -> usize;

    /// Per vertex, whether it has no out-edge.
    fn sinks(&self) -> Vec<bool>;
}

/// The runners' degree table: every out-degree is already counted.
impl OutDegrees for Degrees {
    fn num_vertices(&self) -> usize {
        self.num_vertices()
    }

    fn sinks(&self) -> Vec<bool> {
        let n = self.num_vertices();
        (0..n)
            .map(|i| self.out_degree(Vid::from_index(i)) == 0)
            .collect()
    }
}

/// A bare edge list, for a caller without a degree table: scanned once,
/// every vertex is a sink until an edge names it source.
impl OutDegrees for Graph {
    fn num_vertices(&self) -> usize {
        self.num_vertices()
    }

    fn sinks(&self) -> Vec<bool> {
        let mut sinks = vec![true; self.num_vertices()];
        for e in self.edges() {
            sinks[e.src.index()] = false;
        }
        sinks
    }
}

/// Computes the FT placement for tolerating `tolerance` simultaneous
/// machine failures.
///
/// The selfish flags are the sinks of `degrees` — the runners pass the
/// [`Degrees`] table they build anyway, whose out-degree 0 marks a vertex
/// without out-edges — wherever `selfish_enabled`, the configuration switch,
/// and `program_selfish_ok`, whether the vertex program declares its values
/// recomputable ([`imitator_engine::VertexProgram::selfish_compatible`]),
/// both hold.
///
/// # Panics
///
/// Panics if `tolerance >= num_parts` (there must be a surviving copy) or
/// `tolerance == 0`.
pub fn compute_ft_plan(
    degrees: &(impl OutDegrees + ?Sized),
    view: &dyn ReplicaView,
    tolerance: usize,
    selfish_enabled: bool,
    program_selfish_ok: bool,
    seed: u64,
) -> FtPlan {
    let parts = view.num_parts();
    assert!(tolerance > 0, "tolerance must be at least 1");
    assert!(
        tolerance < parts,
        "cannot tolerate {tolerance} failures with {parts} nodes"
    );
    let n = degrees.num_vertices();
    let selfish = if selfish_enabled && program_selfish_ok {
        degrees.sinks()
    } else {
        vec![false; n]
    };
    // Per-node load trackers for balanced placement, and how many extra
    // replicas there will be: every vertex short of `tolerance` replicas
    // gets the difference, so both tables are allocated at their final size.
    let mut mirror_count = vec![0usize; parts];
    let mut copy_count = vec![0usize; parts];
    let mut extras = 0;
    for v in (0..n).map(Vid::from_index) {
        copy_count[view.master_part(v)] += 1;
        let replicas = view.replica_parts(v);
        for &p in replicas {
            copy_count[p as usize] += 1;
        }
        extras += tolerance.saturating_sub(replicas.len());
    }
    let mut mirror = Ragged::with_capacity(n, n * tolerance);
    let mut extra_replicas = Ragged::with_capacity(n, extras);
    let mut rng = StdRng::seed_from_u64(seed);

    // One vertex's mirrors, in mirror-ID order: first those chosen among its
    // replicas, then the extra replicas created for it.
    let mut mirrors: Vec<NodeId> = Vec::with_capacity(tolerance);
    for v in (0..n).map(Vid::from_index) {
        mirrors.clear();

        // Greedy mirror choice among existing replicas: least-mirrored
        // machines first (ties by node ID for determinism). `tolerance`
        // scans for the next-smallest key, not a sort of a copied list.
        let replicas = view.replica_parts(v);
        for _ in 0..tolerance.min(replicas.len()) {
            let next = replicas
                .iter()
                .map(|&p| p as usize)
                .filter(|&p| !mirrors.contains(&NodeId::from_index(p)))
                .min_by_key(|&p| (mirror_count[p], p))
                .expect("fewer mirrors chosen than replicas exist");
            mirrors.push(NodeId::from_index(next));
        }
        let among_replicas = mirrors.len();

        // Not enough replicas: create extra FT replicas (§4.1). Draw a few
        // random candidates and keep the least-loaded one.
        while mirrors.len() < tolerance {
            let owner = view.master_part(v);
            let mut best: Option<usize> = None;
            for _ in 0..8 {
                let p = rng.gen_range(0..parts);
                if p == owner
                    || mirrors.contains(&NodeId::from_index(p))
                    || replicas.contains(&(p as u32))
                {
                    continue;
                }
                best = Some(match best {
                    None => p,
                    Some(b)
                        if copy_count[p] + mirror_count[p] < copy_count[b] + mirror_count[b] =>
                    {
                        p
                    }
                    Some(b) => b,
                });
            }
            // Random draws can all collide on small clusters; fall back to a
            // deterministic scan for any eligible node.
            let chosen = best.unwrap_or_else(|| {
                (0..parts)
                    .filter(|&p| {
                        p != owner
                            && !mirrors.contains(&NodeId::from_index(p))
                            && !replicas.contains(&(p as u32))
                    })
                    .min_by_key(|&p| (copy_count[p] + mirror_count[p], p))
                    .expect("tolerance < parts guarantees an eligible node")
            });
            mirrors.push(NodeId::from_index(chosen));
            copy_count[chosen] += 1;
        }

        for m in &mirrors {
            mirror_count[m.index()] += 1;
        }
        extra_replicas.push_row(mirrors[among_replicas..].iter().copied());
        mirror.push_row(mirrors.iter().copied());
    }
    FtPlan {
        mirror,
        extra_replicas,
        selfish,
    }
}

/// Fraction of vertices that needed an extra FT replica, excluding selfish
/// vertices (the series of Fig. 3(b)).
pub fn extra_replica_fraction(plan: &FtPlan) -> f64 {
    let n = plan.num_vertices();
    if n == 0 {
        return 0.0;
    }
    let extra = (0..n)
        .filter(|&i| plan.extra_replicas.row_len(i) > 0 && !plan.selfish[i])
        .count();
    extra as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use imitator_engine::Locations;
    use imitator_graph::gen;
    use imitator_partition::{
        EdgeCutPartitioner, HashEdgeCut, RandomVertexCut, VertexCutPartitioner,
    };

    fn plan_for(parts: usize, k: usize) -> (Graph, EdgeCut, FtPlan) {
        let g = gen::power_law_selfish(2_000, 2.0, 6, 0.2, 5);
        let cut = HashEdgeCut.partition(&g, parts);
        let plan = compute_ft_plan(&Degrees::of(&g), &cut, k, true, true, 42);
        (g, cut, plan)
    }

    #[test]
    fn every_vertex_gets_k_mirrors() {
        let (g, cut, plan) = plan_for(8, 2);
        for v in g.vertices() {
            let mirrors = plan.mirrors(v);
            assert_eq!(mirrors.len(), 2, "{v} has {} mirrors", mirrors.len());
            // distinct, none on the owner
            assert_ne!(mirrors[0], mirrors[1]);
            for m in mirrors {
                assert_ne!(m.index(), cut.owner(v));
            }
        }
    }

    #[test]
    fn extras_only_where_replicas_lack() {
        let (g, cut, plan) = plan_for(8, 1);
        for v in g.vertices() {
            if cut.replica_parts(v).is_empty() {
                assert_eq!(plan.extras(v).len(), 1);
            } else {
                assert!(plan.extras(v).is_empty());
            }
        }
    }

    #[test]
    fn selfish_flags_follow_out_degree() {
        let (g, _cut, plan) = plan_for(8, 1);
        let mut out_deg = vec![0u32; g.num_vertices()];
        for e in g.edges() {
            out_deg[e.src.index()] += 1;
        }
        for v in g.vertices() {
            assert_eq!(plan.selfish[v.index()], out_deg[v.index()] == 0);
        }
    }

    #[test]
    fn selfish_disabled_clears_flags() {
        let g = gen::power_law_selfish(500, 2.0, 6, 0.3, 1);
        let cut = HashEdgeCut.partition(&g, 4);
        let plan = compute_ft_plan(&Degrees::of(&g), &cut, 1, false, true, 1);
        assert!(plan.selfish.iter().all(|&s| !s));
        let plan2 = compute_ft_plan(&Degrees::of(&g), &cut, 1, true, false, 1);
        assert!(plan2.selfish.iter().all(|&s| !s));
    }

    #[test]
    fn mirror_load_is_balanced() {
        let (g, _cut, plan) = plan_for(8, 1);
        let mut counts = vec![0usize; 8];
        for v in g.vertices() {
            for m in plan.mirrors(v) {
                counts[m.index()] += 1;
            }
        }
        let (min, max) = (
            *counts.iter().min().unwrap() as f64,
            *counts.iter().max().unwrap() as f64,
        );
        assert!(max / min.max(1.0) < 1.6, "mirror imbalance: {counts:?}");
    }

    #[test]
    fn works_on_vertex_cut() {
        let g = gen::power_law(1_000, 2.0, 8, 3);
        let cut = RandomVertexCut.partition(&g, 6);
        let plan = compute_ft_plan(&Degrees::of(&g), &cut, 3, false, false, 9);
        for v in g.vertices() {
            assert_eq!(plan.mirrors(v).len(), 3);
        }
    }

    #[test]
    #[should_panic(expected = "cannot tolerate")]
    fn tolerance_must_leave_survivors() {
        let g = gen::power_law(100, 2.0, 4, 1);
        let cut = HashEdgeCut.partition(&g, 3);
        compute_ft_plan(&Degrees::of(&g), &cut, 3, false, false, 0);
    }

    #[test]
    fn extra_fraction_is_small_on_well_connected_graphs() {
        // Fig. 3(b): < 0.15% extra replicas for well-connected datasets.
        let g = gen::power_law(5_000, 2.0, 15, 7);
        let cut = HashEdgeCut.partition(&g, 16);
        let plan = compute_ft_plan(&Degrees::of(&g), &cut, 1, true, true, 3);
        assert!(extra_replica_fraction(&plan) < 0.02);
    }

    fn meta_with_mirrors(mirrors: &[usize]) -> Locations {
        let nodes: Vec<NodeId> = mirrors.iter().map(|&m| NodeId::from_index(m)).collect();
        Locations::new(0, &nodes, &vec![0; nodes.len()], &nodes)
    }

    #[test]
    fn responsible_mirror_none_when_all_mirrors_dead() {
        let meta = meta_with_mirrors(&[1, 2]);
        // Nodes 1 and 2 (the only mirrors) are both dead: nobody can take
        // responsibility, recovery of this master is impossible.
        let alive = [true, false, false, true];
        assert_eq!(responsible_mirror(meta.view(), &alive), None);
    }

    #[test]
    fn responsible_mirror_returns_after_standby_promotion() {
        let meta = meta_with_mirrors(&[1, 3]);
        // First mirror (node 1) dead: responsibility falls to the next
        // surviving mirror in ID order.
        let mut alive = [true, false, true, true];
        assert_eq!(
            responsible_mirror(meta.view(), &alive),
            Some(NodeId::from_index(3))
        );
        // A standby adopts the crashed identity (Rebirth): node 1 is alive
        // again and, being first in mirror order, responsible once more.
        alive[1] = true;
        assert_eq!(
            responsible_mirror(meta.view(), &alive),
            Some(NodeId::from_index(1))
        );
    }

    /// `compute_ft_plan` as of PR 12: a sorted copy of the replica list per
    /// vertex, a mirror list and an extra-replica list per vertex. The K-min
    /// scan into two flat tables that replaced it must place every mirror
    /// and extra replica identically, drawing the same random numbers.
    #[allow(clippy::needless_range_loop)] // loops pair the index with Vid::from_index(i)
    fn reference_ft_plan(
        g: &Graph,
        view: &dyn ReplicaView,
        tolerance: usize,
        selfish_enabled: bool,
        program_selfish_ok: bool,
        seed: u64,
    ) -> FtPlan {
        let parts = view.num_parts();
        assert!(tolerance > 0, "tolerance must be at least 1");
        assert!(
            tolerance < parts,
            "cannot tolerate {tolerance} failures with {parts} nodes"
        );
        let n = g.num_vertices();
        let mut out_deg = vec![0u32; n];
        for e in g.edges() {
            out_deg[e.src.index()] += 1;
        }

        let (mut mirror, mut extra_replicas) = (vec![Vec::new(); n], vec![Vec::new(); n]);
        let mut selfish = vec![false; n];
        // Per-node load trackers for balanced placement.
        let mut mirror_count = vec![0usize; parts];
        let mut copy_count = vec![0usize; parts];
        for i in 0..n {
            let v = Vid::from_index(i);
            copy_count[view.master_part(v)] += 1;
            for &p in view.replica_parts(v) {
                copy_count[p as usize] += 1;
            }
        }
        let mut rng = StdRng::seed_from_u64(seed);

        for i in 0..n {
            let v = Vid::from_index(i);
            let owner = view.master_part(v);
            selfish[i] = selfish_enabled && program_selfish_ok && out_deg[i] == 0;

            // Greedy mirror choice among existing replicas: least-mirrored
            // machines first (ties by node ID for determinism).
            let mut candidates: Vec<usize> =
                view.replica_parts(v).iter().map(|&p| p as usize).collect();
            candidates.sort_by_key(|&p| (mirror_count[p], p));
            let mut mirrors: Vec<NodeId> = candidates
                .iter()
                .take(tolerance)
                .map(|&p| NodeId::from_index(p))
                .collect();

            // Not enough replicas: create extra FT replicas (§4.1). Draw a few
            // random candidates and keep the least-loaded one.
            while mirrors.len() < tolerance {
                let mut best: Option<usize> = None;
                for _ in 0..8 {
                    let p = rng.gen_range(0..parts);
                    if p == owner
                        || mirrors.contains(&NodeId::from_index(p))
                        || view.replica_parts(v).contains(&(p as u32))
                    {
                        continue;
                    }
                    best = Some(match best {
                        None => p,
                        Some(b)
                            if copy_count[p] + mirror_count[p]
                                < copy_count[b] + mirror_count[b] =>
                        {
                            p
                        }
                        Some(b) => b,
                    });
                }
                // Random draws can all collide on small clusters; fall back to a
                // deterministic scan for any eligible node.
                let chosen = best.unwrap_or_else(|| {
                    (0..parts)
                        .filter(|&p| {
                            p != owner
                                && !mirrors.contains(&NodeId::from_index(p))
                                && !view.replica_parts(v).contains(&(p as u32))
                        })
                        .min_by_key(|&p| (copy_count[p] + mirror_count[p], p))
                        .expect("tolerance < parts guarantees an eligible node")
                });
                mirrors.push(NodeId::from_index(chosen));
                extra_replicas[i].push(NodeId::from_index(chosen));
                copy_count[chosen] += 1;
            }

            for m in &mirrors {
                mirror_count[m.index()] += 1;
            }
            mirror[i] = mirrors;
        }
        FtPlan {
            mirror: Ragged::from_rows(&mirror),
            extra_replicas: Ragged::from_rows(&extra_replicas),
            selfish,
        }
    }

    #[test]
    fn plan_equals_the_sorting_reference() {
        for seed in 0..50u64 {
            let g = gen::power_law_selfish(600, 2.0, 5, 0.2, seed);
            let parts = 2 + (seed as usize % 7);
            let tolerance = 1 + (seed as usize % 3).min(parts - 2);
            let selfish = seed % 2 == 0;
            let ec = HashEdgeCut.partition(&g, parts);
            let vc = RandomVertexCut.partition(&g, parts);
            let views: [&dyn ReplicaView; 2] = [&ec, &vc];
            let degrees = Degrees::of(&g);
            for view in views {
                let plan = compute_ft_plan(&degrees, view, tolerance, selfish, true, seed);
                let what = format!("seed {seed}, {parts} parts, tolerance {tolerance}");
                assert_eq!(
                    plan,
                    reference_ft_plan(&g, view, tolerance, selfish, true, seed),
                    "{what}"
                );
                // A bare edge list flags the same sinks the degree table does.
                let scanned = compute_ft_plan(&g, view, tolerance, selfish, true, seed);
                assert_eq!(plan, scanned, "{what}");
            }
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let g = gen::power_law(500, 2.0, 6, 11);
        let cut = HashEdgeCut.partition(&g, 5);
        let a = compute_ft_plan(&Degrees::of(&g), &cut, 2, true, true, 7);
        let b = compute_ft_plan(&Degrees::of(&g), &cut, 2, true, true, 7);
        assert_eq!(a, b);
    }
}
