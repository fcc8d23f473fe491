//! Where a vertex's copies live: the part of full state both engines keep.

use imitator_cluster::NodeId;
use imitator_metrics::MemSize;

use crate::inline_list::InlineList;

/// The replica-location tables a master shares with its mirrors (§4.2,
/// §5.1.2): where the master sits on its owner, which nodes hold a copy and
/// at which array position, and which of those copies are mirrors.
///
/// This is all of a vertex-cut copy's full state (its edges are persisted to
/// edge-ckpt files, §4.3) and the header of an edge-cut copy's. Recovery
/// reads and rewrites it through the methods below, the same way for both
/// engines; `replica_nodes` stays sorted and parallel to
/// `replica_positions`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Locations {
    master_pos: u32,
    replica_nodes: InlineList<NodeId>,
    replica_positions: InlineList<u32>,
    mirror_nodes: InlineList<NodeId>,
}

impl Locations {
    /// Tables for a master at `master_pos` on its owner. `replica_nodes`
    /// lists every other node holding a copy, ascending, `replica_positions`
    /// the copy's array position on each of them, and `mirror_nodes` the
    /// mirrors in mirror-ID order.
    ///
    /// # Panics
    ///
    /// Panics if the two replica tables differ in length.
    pub fn new(
        master_pos: u32,
        replica_nodes: InlineList<NodeId>,
        replica_positions: InlineList<u32>,
        mirror_nodes: InlineList<NodeId>,
    ) -> Self {
        assert_eq!(
            replica_nodes.len(),
            replica_positions.len(),
            "replica tables are parallel"
        );
        Locations {
            master_pos,
            replica_nodes,
            replica_positions,
            mirror_nodes,
        }
    }

    /// The master's array position on its own node.
    pub fn master_pos(&self) -> u32 {
        self.master_pos
    }

    /// Records a new master array position (after a Migration promotion).
    pub fn set_master_pos(&mut self, pos: u32) {
        self.master_pos = pos;
    }

    /// Nodes holding a copy of this vertex (computation replicas, mirrors
    /// and extra FT replicas), excluding the master's. Sorted.
    pub fn replica_nodes(&self) -> &InlineList<NodeId> {
        &self.replica_nodes
    }

    /// The copy's array position on each node of [`Self::replica_nodes`],
    /// parallel to it — position-addressed recovery of lost replicas needs
    /// the crashed node's layout (§5.1.2).
    pub fn replica_positions(&self) -> &InlineList<u32> {
        &self.replica_positions
    }

    /// The replica nodes upgraded to full-state mirrors, ordered by mirror
    /// ID: on failure the surviving mirror with the lowest ID recovers the
    /// master without any election traffic (§5.3.1).
    pub fn mirror_nodes(&self) -> &InlineList<NodeId> {
        &self.mirror_nodes
    }

    /// Designates `node` as an additional mirror (appended last in
    /// responsibility order).
    pub fn add_mirror(&mut self, node: NodeId) {
        self.mirror_nodes.push(node);
    }

    /// The recorded position of this vertex's copy on `node`.
    pub fn replica_position_on(&self, node: NodeId) -> Option<u32> {
        self.replica_nodes
            .iter()
            .position(|&n| n == node)
            .map(|i| self.replica_positions[i])
    }

    /// Removes `node` from the replica/mirror tables (it crashed or was
    /// promoted).
    pub fn purge_node(&mut self, node: NodeId) {
        if let Some(i) = self.replica_nodes.iter().position(|&n| n == node) {
            self.replica_nodes.remove(i);
            self.replica_positions.remove(i);
        }
        self.mirror_nodes.retain(|&n| n != node);
    }

    /// [`Locations::purge_node`] for each of `nodes`.
    pub fn purge_nodes(&mut self, nodes: &[NodeId]) {
        nodes.iter().for_each(|&node| self.purge_node(node));
    }

    /// Registers (or re-registers) a copy of this vertex at `node`/`pos`,
    /// keeping `replica_nodes` sorted.
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

impl MemSize for Locations {
    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Locations>()
            + self.replica_nodes.heap_bytes()
            + self.replica_positions.heap_bytes()
            + self.mirror_nodes.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(ids: &[u32]) -> InlineList<NodeId> {
        ids.iter().map(|&n| NodeId::new(n)).collect()
    }

    #[test]
    fn register_keeps_the_tables_sorted_and_parallel() {
        let mut loc = Locations::new(7, nodes(&[1, 4]), [10, 40][..].into(), nodes(&[4]));
        loc.register_replica(NodeId::new(2), 20);
        loc.register_replica(NodeId::new(4), 41); // repositions
        assert_eq!(**loc.replica_nodes(), *nodes(&[1, 2, 4]));
        assert_eq!(**loc.replica_positions(), [10, 20, 41]);
        assert_eq!(loc.replica_position_on(NodeId::new(2)), Some(20));
        assert_eq!(loc.replica_position_on(NodeId::new(3)), None);
    }

    #[test]
    fn purge_forgets_a_node_in_every_table() {
        let mut loc = Locations::new(0, nodes(&[1, 2, 3]), [5, 6, 7][..].into(), nodes(&[3, 1]));
        loc.purge_node(NodeId::new(1));
        assert_eq!(**loc.replica_nodes(), *nodes(&[2, 3]));
        assert_eq!(**loc.replica_positions(), [6, 7]);
        assert_eq!(**loc.mirror_nodes(), *nodes(&[3]));
        loc.purge_node(NodeId::new(9)); // absent: no change
        assert_eq!(loc.replica_nodes().len(), 2);
    }
}
