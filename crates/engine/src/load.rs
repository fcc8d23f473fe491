//! What the edge-cut and vertex-cut loaders share: which vertices each node
//! holds a copy of and at which position, a vertex's replica-location
//! tables, and the fan-out that builds every node's graph on a thread of
//! its own (§4: each machine creates its replicas, mirrors and full state
//! itself).

use imitator_cluster::NodeId;
use imitator_graph::{PosIndex, Vid};

use crate::ecut::CopyKind;
use crate::ftplan::FtPlan;
use crate::full_state::{Column, Head, Span};
use crate::locations::LocationsRef;

/// Every node's copy set and position index, the one thing a node's loader
/// needs to know about the *other* nodes: full state records where each
/// replica sits on its host and where each remote consumer sits on its
/// owner (§5.1.2).
pub(crate) struct Layout {
    /// Per node, the vertices it holds a copy of (master ∪ computation
    /// replicas ∪ extra FT replicas), ascending: a copy's position is its
    /// index here.
    pub copies: Vec<Vec<Vid>>,
    /// Per node, vertex → position.
    pub pos_maps: Vec<PosIndex>,
    /// Per node, the vertices at positions 2^7, 2^14, 2^21 and 2^28 — where
    /// a position's varint grows a byte — or `u32::MAX` past its copies.
    widths: Vec<[u32; 4]>,
}

impl Layout {
    /// Lays the plan's vertices out over `parts` nodes; `place(v)` is the
    /// partitioning's `(master part, replica parts)` of `v`.
    pub fn new<'c>(parts: usize, plan: &FtPlan, place: impl Fn(Vid) -> (usize, &'c [u32])) -> Self {
        let hosts = |v: Vid| {
            let (master, replicas) = place(v);
            std::iter::once(master)
                .chain(replicas.iter().map(|&p| p as usize))
                .chain(plan.extras(v).iter().map(|n| n.index()))
        };
        let vertices = || (0..plan.num_vertices()).map(Vid::from_index);
        // Count (a part named twice for a vertex counts twice: room, not
        // length), so that each list is allocated once.
        let mut room = vec![0usize; parts];
        for p in vertices().flat_map(hosts) {
            room[p] += 1;
        }
        let mut copies: Vec<Vec<Vid>> = room.into_iter().map(Vec::with_capacity).collect();
        for v in vertices() {
            for p in hosts(v) {
                // Vertices arrive ascending, so a list stays sorted and a
                // part named twice for `v` finds `v` already last.
                if copies[p].last() != Some(&v) {
                    copies[p].push(v);
                }
            }
        }
        let pos_maps = copies
            .iter()
            .map(|vids| PosIndex::from_sorted_vids(vids))
            .collect();
        let widths = copies
            .iter()
            .map(|vids| {
                [7, 14, 21, 28].map(|bits| vids.get(1 << bits).map_or(u32::MAX, |v| v.raw()))
            })
            .collect();
        Layout {
            copies,
            pos_maps,
            widths,
        }
    }

    /// Bytes the varint of the position of `v`'s copy on `node` takes,
    /// read off the copy list without looking the position up: positions
    /// follow the vertices' order, so the copy sits at or past position
    /// 2^(7k) exactly when `v` is not below the vertex there.
    pub fn pos_len(&self, node: usize, v: Vid) -> usize {
        1 + self.widths[node]
            .iter()
            .filter(|&&first| v.raw() >= first)
            .count()
    }

    /// Words in the location tables of `v`'s full state: a node and a
    /// position per replica — the partitioning's and the plan's extra ones it
    /// does not already name — and a node per mirror.
    pub fn table_words(v: Vid, replica_parts: &[u32], plan: &FtPlan) -> usize {
        let extras = plan.extras(v);
        let named =
            |i: usize| replica_parts.contains(&extras[i].raw()) || extras[..i].contains(&extras[i]);
        let fresh = (0..extras.len()).filter(|&i| !named(i)).count();
        2 * (replica_parts.len() + fresh) + plan.mirrors(v).len()
    }

    /// Appends the location tables of `v`'s full state, mastered on part
    /// `owner`, at the tail of `words` — the replica nodes (sorted, without
    /// the owner), the copy's position on each of them, and the mirror nodes
    /// in mirror-ID order, [`Layout::table_words`] words in all — and returns
    /// the head that names them.
    ///
    /// # Panics
    ///
    /// Panics if the plan puts a mirror on a node without a copy, or a table
    /// names more nodes than a head counts.
    pub fn push_tables(
        &self,
        v: Vid,
        owner: usize,
        replica_parts: &[u32],
        plan: &FtPlan,
        words: &mut Column<u32>,
    ) -> Head {
        let start = words.0.len();
        words.0.extend_from_slice(replica_parts);
        for extra in plan.extras(v) {
            if !words.0[start..].contains(&extra.raw()) {
                words.0.push(extra.raw());
            }
        }
        words.0[start..].sort_unstable();
        let replicas = words.0.len() - start;
        for i in start..start + replicas {
            let at = self.pos_maps[words.0[i] as usize].at(v);
            words.0.push(at);
        }
        for m in plan.mirrors(v) {
            assert!(
                words.0[start..start + replicas].contains(&m.raw()),
                "mirror of {v} on {m} has no copy there"
            );
            words.0.push(m.raw());
        }
        let master_pos = self.pos_maps[owner].at(v);
        let tables = LocationsRef::from_words(master_pos, replicas, &words.0[start..]);
        Head::of(tables, Span::new(start, words.0.len() - start))
    }
}

/// The role of `v`'s copy on `node`, given `v`'s owner and mirror nodes.
pub(crate) fn copy_kind(node: NodeId, owner: NodeId, mirrors: &[NodeId]) -> CopyKind {
    if owner == node {
        CopyKind::Master
    } else if mirrors.contains(&node) {
        CopyKind::Mirror
    } else {
        CopyKind::Replica
    }
}

/// Collects `items` into a `Vec` allocated once, at its final length
/// `len`: per-vertex lists carry no growth slack.
pub(crate) fn collect_exact<T>(len: usize, items: impl Iterator<Item = T>) -> Vec<T> {
    let mut list = Vec::with_capacity(len);
    list.extend(items);
    debug_assert_eq!(list.len(), len, "list length miscounted");
    list
}

/// Runs `work(p, inputs[p])` for every node `p` on a thread of its own and
/// returns the results in node order. A node needs nothing from another
/// node's thread, only its own input and the shared read-only state `work`
/// borrows; a thread's panic resurfaces on the caller.
pub(crate) fn per_node<T: Send, G: Send>(
    inputs: Vec<T>,
    work: impl Fn(usize, T) -> G + Sync,
) -> Vec<G> {
    let work = &work;
    std::thread::scope(|scope| {
        let threads: Vec<_> = inputs
            .into_iter()
            .enumerate()
            .map(|(p, input)| scope.spawn(move || work(p, input)))
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}
