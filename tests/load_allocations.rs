//! "Per node, not per vertex", as a test: partitioning, planning and loading
//! a graph perform a number of heap allocations that depends on how many
//! nodes there are and not on how many vertices. Placement tables are flat,
//! a local graph's edge lists and full state are columns, and every one of
//! them is sized before it is filled — so doubling the graph must not add a
//! single allocation. (With a `Vec` per vertex these counts were in the
//! hundreds of thousands.)
//!
//! The counter is process-wide, so this binary holds one test and runs its
//! scenarios one after another.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use imitator_repro::algos::PageRank;
use imitator_repro::engine::{build_edge_cut_graphs, Degrees, FtPlan, VertexProgram};
use imitator_repro::ft::plan::compute_ft_plan;
use imitator_repro::graph::gen;
use imitator_repro::partition::{
    EdgeCutPartitioner, HashEdgeCut, RandomVertexCut, VertexCutPartitioner,
};

/// The system allocator, counting every block it hands out.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller upholds; the counter is a statistic
// (`Relaxed`: it publishes no other data) and touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`; all three arguments are the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `f`'s result and how many blocks were allocated (or reallocated) while it
/// ran, on any thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

const PARTS: usize = 4;
/// A placement table or a plan: its arrays, its scratch.
const PER_TABLE: usize = 12;
/// One node's share of a load: its copy list and index, its graph's arrays
/// and columns, the loader's cursors and bitmap, two builder threads.
const PER_NODE: usize = 48;

#[test]
fn set_up_allocates_per_node_not_per_vertex() {
    let pr = PageRank::new(0.85, 0.0);
    let mut counts = Vec::new();
    for vertices in [20_000, 40_000] {
        let g = gen::power_law(vertices, 2.0, 10, 5);
        let degrees = Degrees::of(&g);
        let (cut, cut_ec) = counted(|| HashEdgeCut.partition(&g, PARTS));
        let (_, cut_vc) = counted(|| RandomVertexCut.partition(&g, PARTS));
        let (ft, plan) =
            counted(|| compute_ft_plan(&g, &cut, 1, true, pr.selfish_compatible(), 0xF7));
        let none = FtPlan::none(vertices);
        let (base, load_base) = counted(|| build_edge_cut_graphs(&g, &cut, &none, &pr, &degrees));
        let (with_ft, load_ft) = counted(|| build_edge_cut_graphs(&g, &cut, &ft, &pr, &degrees));
        assert!(ft.is_enabled() && base.len() == PARTS && with_ft.len() == PARTS);
        for (what, count) in [("edge-cut", cut_ec), ("vertex-cut", cut_vc), ("plan", plan)] {
            assert!(
                count <= PER_TABLE,
                "{what} of {vertices} vertices: {count} allocations"
            );
        }
        for (what, count) in [("base", load_base), ("K = 1", load_ft)] {
            assert!(
                count <= PER_NODE * PARTS,
                "{what} load of {vertices} vertices: {count} allocations"
            );
        }
        counts.push([cut_ec, cut_vc, plan, load_base, load_ft]);
    }
    let grew = counts[0]
        .iter()
        .zip(&counts[1])
        .any(|(small, large)| large > small);
    assert!(!grew, "allocations grew with the graph: {counts:?}");
}
