//! Where a vertex's copies live: the part of full state both engines keep.
//!
//! A table is a master position and a run of `u32` words — the replica
//! nodes, the copies' positions on them, the mirror nodes, back to back.
//! A local graph keeps every table's words in one column of its
//! [`FullState`](crate::FullState) and reads them as a [`LocationsRef`];
//! [`Locations`] owns its words: the form a table takes in messages, and
//! the form it is edited in.

use std::fmt;

use imitator_cluster::NodeId;

/// The most replicas, and the most mirrors, a stored table names: a store
/// keeps each count in 16 bits, and decoders refuse what it could not hold.
pub const MAX_TABLE_NODES: usize = u16::MAX as usize;

/// Node IDs read out of a location table, in the table's order.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Nodes<'a>(&'a [u32]);

impl<'a> Nodes<'a> {
    /// How many nodes the list names.
    pub fn len(self) -> usize {
        self.0.len()
    }

    /// Whether the list names no node.
    pub fn is_empty(self) -> bool {
        self.0.is_empty()
    }

    /// The nodes, in order.
    pub fn iter(self) -> <Self as IntoIterator>::IntoIter {
        self.into_iter()
    }

    /// Whether the list names `node`.
    pub fn contains(self, node: &NodeId) -> bool {
        self.0.contains(&node.raw())
    }

    fn position(self, node: NodeId) -> Option<usize> {
        self.0.iter().position(|&raw| raw == node.raw())
    }
}

impl<'a> IntoIterator for Nodes<'a> {
    type Item = NodeId;
    type IntoIter = std::iter::Map<std::iter::Copied<std::slice::Iter<'a, u32>>, fn(u32) -> NodeId>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter().copied().map(NodeId::new)
    }
}

impl fmt::Debug for Nodes<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The replica-location tables a master shares with its mirrors (§4.2,
/// §5.1.2), borrowed from wherever they are stored: where the master sits on
/// its owner, which nodes hold a copy and at which array position, and which
/// of those copies are mirrors.
///
/// This is all of a vertex-cut copy's full state (its edges are persisted to
/// edge-ckpt files, §4.3) and the head of an edge-cut copy's.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct LocationsRef<'a> {
    master_pos: u32,
    replicas: usize,
    /// `replica nodes | replica positions | mirror nodes`.
    words: &'a [u32],
}

impl<'a> LocationsRef<'a> {
    /// Tables at `master_pos` whose first `2 * replicas` of `words` are the
    /// replica nodes and positions. The caller vouches for the counts.
    pub(crate) fn from_words(master_pos: u32, replicas: usize, words: &'a [u32]) -> Self {
        debug_assert!(2 * replicas <= words.len());
        LocationsRef {
            master_pos,
            replicas,
            words,
        }
    }

    /// The master's array position on its own node.
    pub fn master_pos(self) -> u32 {
        self.master_pos
    }

    /// Nodes holding a copy of this vertex (computation replicas, mirrors
    /// and extra FT replicas), excluding the master's. Sorted.
    pub fn replica_nodes(self) -> Nodes<'a> {
        Nodes(&self.words[..self.replicas])
    }

    /// The copy's array position on each node of [`Self::replica_nodes`],
    /// parallel to it — position-addressed recovery of lost replicas needs
    /// the crashed node's layout (§5.1.2).
    pub fn replica_positions(self) -> &'a [u32] {
        &self.words[self.replicas..2 * self.replicas]
    }

    /// The replica nodes upgraded to full-state mirrors, ordered by mirror
    /// ID: on failure the surviving mirror with the lowest ID recovers the
    /// master without any election traffic (§5.3.1).
    pub fn mirror_nodes(self) -> Nodes<'a> {
        Nodes(&self.words[2 * self.replicas..])
    }

    /// Whether the tables name one of `nodes`, as a replica's node or a
    /// mirror's: what purging `nodes` would change.
    pub fn names_any(self, nodes: &[NodeId]) -> bool {
        let named =
            |n: &NodeId| self.replica_nodes().contains(n) || self.mirror_nodes().contains(n);
        nodes.iter().any(named)
    }

    /// The recorded position of this vertex's copy on `node`.
    pub fn replica_position_on(self, node: NodeId) -> Option<u32> {
        let i = self.replica_nodes().position(node)?;
        Some(self.replica_positions()[i])
    }

    /// The three tables as the store keeps them: `replica nodes | replica
    /// positions | mirror nodes`.
    pub(crate) fn words(self) -> &'a [u32] {
        self.words
    }

    /// The owned form, its words allocated at their length.
    pub fn to_owned(self) -> Locations {
        Locations::from_words(self.master_pos, self.replicas, self.words.to_vec())
    }
}

impl fmt::Debug for LocationsRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Locations")
            .field("master_pos", &self.master_pos)
            .field("replica_nodes", &self.replica_nodes())
            .field("replica_positions", &self.replica_positions())
            .field("mirror_nodes", &self.mirror_nodes())
            .finish()
    }
}

/// Location tables that own their words: what recovery messages, the wire
/// and snapshots carry, and what recovery edits — a local graph lends one
/// out for each table it rewrites (`edit_locations`). Read through
/// [`Locations::view`]; `replica_nodes` stays sorted and parallel to
/// `replica_positions`.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Locations {
    master_pos: u32,
    replicas: usize,
    words: Vec<u32>,
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
        replica_nodes: &[NodeId],
        replica_positions: &[u32],
        mirror_nodes: &[NodeId],
    ) -> Self {
        assert_eq!(
            replica_nodes.len(),
            replica_positions.len(),
            "replica tables are parallel"
        );
        let raw = |nodes: &[NodeId]| nodes.iter().map(|n| n.raw()).collect::<Vec<_>>();
        let mut words = raw(replica_nodes);
        words.extend_from_slice(replica_positions);
        words.extend(raw(mirror_nodes));
        Locations::from_words(master_pos, replica_nodes.len(), words)
    }

    /// Tables at `master_pos` from `words` laid out `replica nodes | replica
    /// positions | mirror nodes`, the first two `replicas` long each — how a
    /// decoder builds one, reusing [`Locations::into_words`]' allocation.
    ///
    /// # Panics
    ///
    /// Panics if `words` is too short for two tables of `replicas`.
    pub fn from_words(master_pos: u32, replicas: usize, words: Vec<u32>) -> Self {
        assert!(2 * replicas <= words.len(), "replica tables are parallel");
        Locations {
            master_pos,
            replicas,
            words,
        }
    }

    /// The words' allocation, for the next [`Locations::from_words`].
    pub fn into_words(self) -> Vec<u32> {
        self.words
    }

    /// These tables, borrowed: what every reader takes.
    pub fn view(&self) -> LocationsRef<'_> {
        LocationsRef::from_words(self.master_pos, self.replicas, &self.words)
    }

    /// Makes these tables a copy of `tables`, keeping the allocation.
    pub fn assign(&mut self, tables: LocationsRef<'_>) {
        (self.master_pos, self.replicas) = (tables.master_pos, tables.replicas);
        self.words.clear();
        self.words.extend_from_slice(tables.words);
    }

    /// Records a new master array position (after a Migration promotion).
    pub fn set_master_pos(&mut self, pos: u32) {
        self.master_pos = pos;
    }

    /// Designates `node` as an additional mirror (appended last in
    /// responsibility order).
    pub fn add_mirror(&mut self, node: NodeId) {
        self.words.push(node.raw());
    }

    /// Removes `node` from the replica/mirror tables (it crashed or was
    /// promoted).
    pub fn purge_node(&mut self, node: NodeId) {
        self.purge_nodes(&[node]);
    }

    /// [`Locations::purge_node`] for each of `nodes`.
    pub fn purge_nodes(&mut self, nodes: &[NodeId]) {
        let gone = |raw: u32| nodes.contains(&NodeId::new(raw));
        let (r, mut kept) = (self.replicas, 0);
        for i in 0..r {
            if !gone(self.words[i]) {
                (self.words[kept], self.words[r + kept]) = (self.words[i], self.words[r + i]);
                kept += 1;
            }
        }
        // Positions close up to the kept nodes, the kept mirrors to both.
        self.words.copy_within(r..r + kept, kept);
        let mut to = 2 * kept;
        for from in 2 * r..self.words.len() {
            if !gone(self.words[from]) {
                self.words[to] = self.words[from];
                to += 1;
            }
        }
        self.words.truncate(to);
        self.replicas = kept;
    }

    /// Registers (or re-registers) a copy of this vertex at `node`/`pos`,
    /// keeping `replica_nodes` sorted.
    pub fn register_replica(&mut self, node: NodeId, pos: u32) {
        let r = self.replicas;
        let i = self.words[..r].partition_point(|&n| n < node.raw());
        if self.words[..r].get(i) == Some(&node.raw()) {
            self.words[r + i] = pos;
        } else {
            self.words.insert(r + i, pos);
            self.words.insert(i, node.raw());
            self.replicas += 1;
        }
    }
}

impl fmt::Debug for Locations {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.view().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(ids: &[u32]) -> Vec<NodeId> {
        ids.iter().map(|&n| NodeId::new(n)).collect()
    }

    #[test]
    fn register_keeps_the_tables_sorted_and_parallel() {
        let mut loc = Locations::new(7, &nodes(&[1, 4]), &[10, 40], &nodes(&[4]));
        loc.register_replica(NodeId::new(2), 20);
        loc.register_replica(NodeId::new(4), 41); // repositions
        loc.add_mirror(NodeId::new(1));
        let want = Locations::new(7, &nodes(&[1, 2, 4]), &[10, 20, 41], &nodes(&[4, 1]));
        assert_eq!(loc, want);
        assert_eq!(loc.view().replica_position_on(NodeId::new(2)), Some(20));
        assert_eq!(loc.view().replica_position_on(NodeId::new(3)), None);
        assert_eq!(Locations::from_words(7, 3, loc.clone().into_words()), loc);
    }

    #[test]
    fn purge_forgets_a_node_in_every_table() {
        let mut loc = Locations::new(0, &nodes(&[1, 2, 3]), &[5, 6, 7], &nodes(&[3, 1]));
        loc.purge_node(NodeId::new(1));
        assert_eq!(
            loc,
            Locations::new(0, &nodes(&[2, 3]), &[6, 7], &nodes(&[3]))
        );
        loc.purge_node(NodeId::new(9)); // absent: no change
        assert_eq!(loc.view().replica_nodes().len(), 2);
        loc.purge_nodes(&nodes(&[3, 2]));
        assert_eq!(loc, Locations::new(0, &[], &[], &[]));
    }
}
