//! "Per node, not per vertex", as a test: partitioning, planning and loading
//! a graph perform a number of heap allocations that depends on how many
//! nodes there are and not on how many vertices. Placement tables are flat,
//! a local graph's edge lists and full state are columns, and every one of
//! them is sized before it is filled — so doubling the graph must not add a
//! single allocation, under either cut, at 4 nodes or 8, with no mirror per
//! vertex, one or two. (With a `Vec` per vertex these counts were in the
//! hundreds of thousands; with location tables as three small-vectors per
//! slot, every table of more than three replicas was a heap block of its
//! own.) The same allocator counts live bytes, and holds the graphs'
//! `mem_bytes` — the gauge every memory table reports — to what a load
//! actually leaves allocated; and it keeps their high-water mark, which
//! holds what a fault-tolerant edge-cut load allocates on the way and frees
//! again — scratch tables, mirror blocks staged before they reach their
//! stores — to the figures recorded below, and what fault tolerance adds
//! to it below the bytes of the mirror blocks.
//!
//! The counter is process-wide, so this binary holds one test and runs its
//! scenarios one after another.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use imitator_repro::algos::PageRank;
use imitator_repro::engine::{
    build_edge_cut_graphs, build_vertex_cut_graphs, CopyKind, Degrees, EcLocalGraph, EcVertex,
    FtPlan, FullStateRef, InEdges, VcVertex, VertexProgram,
};
use imitator_repro::ft::plan::{compute_ft_plan, ReplicaView};
use imitator_repro::graph::{gen, Graph};
use imitator_repro::metrics::MemSize;
use imitator_repro::partition::{
    EdgeCutPartitioner, HashEdgeCut, RandomVertexCut, VertexCutPartitioner,
};

/// The system allocator, counting every block it hands out, the bytes that
/// are live and the most that have been.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

/// Counts `bytes` more live, and raises the high-water mark to match.
fn grew(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller upholds; the counters are statistics
// (`Relaxed`: they publish no other data) and touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grew(new_size);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`; all three arguments are the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// What `f` allocated: blocks handed out (or moved) while it ran, on any
/// thread, how many more bytes are live now that it has returned, and how
/// many more were live at the most while it ran. (A grown block counts its
/// old and new sizes at once, as a move does.)
struct Cost {
    blocks: usize,
    kept_bytes: usize,
    peak_bytes: usize,
}

impl Cost {
    /// What `f` held at its peak beyond what it kept: memory it freed again.
    fn transient_bytes(&self) -> usize {
        self.peak_bytes - self.kept_bytes
    }
}

fn counted<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let blocks = ALLOCATIONS.load(Ordering::Relaxed);
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(live, Ordering::Relaxed);
    let out = f();
    let cost = Cost {
        blocks: ALLOCATIONS.load(Ordering::Relaxed) - blocks,
        kept_bytes: LIVE_BYTES.load(Ordering::Relaxed).saturating_sub(live),
        peak_bytes: PEAK_BYTES.load(Ordering::Relaxed) - live,
    };
    (out, cost)
}

/// A placement table or a plan: its arrays, its scratch.
const PER_TABLE: usize = 12;
/// One node's share of a load: its copy list and index, its graph's arrays
/// and columns, the loader's cursors and bitmap, two builder threads.
const PER_NODE: usize = 48;

/// What a fault-tolerant edge-cut load of `gen::power_law(vertices, 2.0,
/// 10, 5)` on `parts` nodes at tolerance `k` allocated and freed again, at
/// its peak, when every node's mirror pass reserved room for its mirrors'
/// runs from the degrees alone and kept the edge-end table to the end: the
/// least of three runs. The loader may only need less.
fn recorded_transient(vertices: usize, parts: usize, k: usize) -> usize {
    match (vertices, parts, k) {
        (20_000, 4, 1) => 5_058_018,
        (20_000, 4, 2) => 9_099_485,
        (20_000, 8, 1) => 4_461_694,
        (20_000, 8, 2) => 7_818_297,
        (40_000, 4, 1) => 9_730_159,
        (40_000, 4, 2) => 17_338_414,
        (40_000, 8, 1) => 9_587_637,
        (40_000, 8, 2) => 16_970_076,
        _ => panic!("no figure recorded for {vertices} vertices on {parts} nodes at K = {k}"),
    }
}

/// Bytes of the mirrors' blocks the graphs' stores hold. A master's block —
/// two empty runs and its remote out-edges, written straight into the byte
/// column by the load's fill scan — is not counted: the bound it sets is on
/// what staging mirror blocks would cost.
fn mirror_blocks<V>(lgs: &[EcLocalGraph<V>]) -> usize {
    let block = |state: FullStateRef<'_>| {
        let InEdges::Run(ins) = state.in_edges else {
            panic!("a mirror stores its in-edges as a run");
        };
        let (fed, remote) = (state.out_local_owner.run(), state.out_remote.run());
        let runs = [Some(ins), fed, remote].map(|run| run.expect("a mirror stores runs"));
        runs.iter().map(|run| run.bytes().len()).sum::<usize>()
    };
    let mirrors = |lg: &EcLocalGraph<V>| {
        let mirror = |pos: u32| lg.verts[pos as usize].kind == CopyKind::Mirror;
        let positions = (0..lg.len() as u32).filter(move |&pos| mirror(pos));
        let stored = move |pos| lg.stored_full_state(pos).expect("a mirror has full state");
        positions.map(move |pos| block(stored(pos))).sum::<usize>()
    };
    lgs.iter().map(mirrors).sum()
}

/// The loaders' allocation counts for `g` on `parts` nodes — edge-cut then
/// vertex-cut, each without fault tolerance and at K = 1 and 2 — after
/// holding each within [`PER_NODE`] blocks per node and its graphs'
/// `mem_bytes` within 3 % of the bytes the build actually left live: the
/// gauge may fall only because memory did. What a fault-tolerant edge-cut
/// load frees again may not exceed its recorded figure, and what fault
/// tolerance adds to it — beyond what the same load frees again without —
/// may not reach the bytes of the mirror blocks it writes.
fn load_counts(g: &Graph, parts: usize) -> Vec<usize> {
    let pr = PageRank::new(0.85, 0.0);
    let degrees = Degrees::of(g);
    let plans = |view: &dyn ReplicaView| {
        let ft = |k| compute_ft_plan(&degrees, view, k, true, pr.selfish_compatible(), 0xF7);
        [FtPlan::none(g.num_vertices()), ft(1), ft(2)]
    };
    let mut counts = Vec::new();
    let mut check = |what: &str, k: usize, graphs: usize, mem_bytes: usize, cost: Cost| {
        let what = format!(
            "{what} load of {} vertices, K = {k}, on {parts} nodes",
            g.num_vertices()
        );
        assert_eq!(graphs, parts, "{what}");
        assert!(
            cost.blocks <= PER_NODE * parts,
            "{what}: {} allocations",
            cost.blocks
        );
        let off = mem_bytes.abs_diff(cost.kept_bytes) as f64 / cost.kept_bytes as f64;
        assert!(
            off <= 0.03,
            "{what}: mem_bytes says {mem_bytes} B, {} B are live",
            cost.kept_bytes
        );
        counts.push(cost.blocks);
    };
    let cut = HashEdgeCut.partition(g, parts);
    // What the load without fault tolerance frees again: scratch that does
    // not move with the mirror blocks' encoding.
    let mut scratch = 0;
    for (k, plan) in plans(&cut).iter().enumerate() {
        assert_eq!(plan.is_enabled(), k > 0);
        let (lgs, cost) = counted(|| build_edge_cut_graphs(g, &cut, plan, &pr, &degrees));
        if k == 0 {
            scratch = cost.transient_bytes();
        } else {
            let what = format!(
                "edge-cut load of {} vertices, K = {k}, on {parts} nodes",
                g.num_vertices()
            );
            let (transient, blocks) = (cost.transient_bytes(), mirror_blocks(&lgs));
            let recorded = recorded_transient(g.num_vertices(), parts, k);
            assert!(
                transient <= recorded,
                "{what}: {transient} B allocated and freed again, {recorded} B recorded"
            );
            // Blocks written anywhere but in their stores are held twice.
            let added = transient.saturating_sub(scratch);
            assert!(
                added < blocks,
                "{what}: {transient} B allocated and freed again, {added} B beyond the load \
                 without fault tolerance, {blocks} B of mirror blocks"
            );
        }
        let mem_bytes = lgs.iter().map(MemSize::mem_bytes).sum();
        check("edge-cut", k, lgs.len(), mem_bytes, cost);
    }
    let cut = RandomVertexCut.partition(g, parts);
    for (k, plan) in plans(&cut).iter().enumerate() {
        let (lgs, cost) = counted(|| build_vertex_cut_graphs(g, &cut, plan, &pr, &degrees));
        let mem_bytes = lgs.iter().map(MemSize::mem_bytes).sum();
        check("vertex-cut", k, lgs.len(), mem_bytes, cost);
    }
    counts
}

#[test]
fn set_up_allocates_per_node_not_per_vertex() {
    // What a copy costs before a single edge: `mem_bytes` multiplies these.
    assert!(std::mem::size_of::<EcVertex<f64>>() <= 48);
    assert!(std::mem::size_of::<VcVertex<f64>>() <= 24);

    let pr = PageRank::new(0.85, 0.0);
    let mut counts: Vec<Vec<usize>> = Vec::new();
    for vertices in [20_000, 40_000] {
        let g = gen::power_law(vertices, 2.0, 10, 5);
        let mut sized = Vec::new();
        // At 8 nodes most vertices have more than three replicas: no count
        // may depend on how many a location table names.
        let degrees = Degrees::of(&g);
        for parts in [4, 8] {
            let (cut, cut_ec) = counted(|| HashEdgeCut.partition(&g, parts));
            let (_, cut_vc) = counted(|| RandomVertexCut.partition(&g, parts));
            let (ft, plan) =
                counted(|| compute_ft_plan(&degrees, &cut, 1, true, pr.selfish_compatible(), 0xF7));
            assert!(ft.is_enabled());
            let tables = [("edge-cut", cut_ec), ("vertex-cut", cut_vc), ("plan", plan)];
            for (what, cost) in tables {
                assert!(
                    cost.blocks <= PER_TABLE,
                    "{what} of {vertices} vertices on {parts} nodes: {} allocations",
                    cost.blocks
                );
                sized.push(cost.blocks);
            }
            sized.extend(load_counts(&g, parts));
        }
        counts.push(sized);
    }
    let grew = counts[0]
        .iter()
        .zip(&counts[1])
        .any(|(small, large)| large > small);
    assert!(!grew, "allocations grew with the graph: {counts:?}");
}
